"""Consistent partition assignment with hot-domain salting.

``part(url) = stable_hash(domain) % n_parts`` unless the domain is in the
persisted salt map, in which case urls spread over the domain's salt-part
list by stable url hash. Salting decisions are made on the driver from
heavy-hitter event counts; the salt map and the heavy-hitter counters are
persisted in the manifest so routing is a pure function across runs.

Reference analogue: ``SequencingExperimentPartitionAssigner`` — mutable
counter state bootstrapped from committed data, reuse-or-rollover
assignment, consistency checks (`radiant/tasks/starrocks/partition.py:86-231`)
— generalized to hash routing + explicit skew handling (north rule axes A+B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: over-allocate salt partitions by this growth factor so a steadily growing
#: hot domain migrates ONCE instead of re-salting (and re-migrating its full
#: history) every time its count doubles — the repeated-migration rounds
#: were the measured straggler spikes in the replay bench. Re-salt only
#: happens after the domain outgrows the headroom.
SALT_HEADROOM = 4.0


@dataclass
class SaltDecision:
    domain: str
    old_parts: list[int]
    new_parts: list[int]


@dataclass
class Partitioner:
    n_parts: int
    salt_map: dict[str, list[int]] = field(default_factory=dict)
    next_part: int = 0
    hot_counts: dict[str, int] = field(default_factory=dict)
    salt_threshold_rows: int = 250_000
    salt_target_rows: int = 150_000

    def __post_init__(self):
        if self.next_part < self.n_parts:
            self.next_part = self.n_parts

    @classmethod
    def from_manifest(cls, man, cfg, hot_counts=None) -> "Partitioner":
        """The routing state committed in ``man`` (None: an empty lake)
        under ``cfg``'s partitioning, its counter lifted to ``n_parts`` as
        every partitioner's is."""
        return cls(
            n_parts=cfg.n_parts,
            salt_map=dict(man.salt_map) if man is not None else {},
            next_part=man.next_part if man is not None else 0,
            hot_counts=hot_counts or {},
            salt_threshold_rows=cfg.salt_threshold_rows,
            salt_target_rows=cfg.salt_target_rows,
        )

    def base_part(self, domain: str) -> int:
        from radiant_portal_pipeline_ray.functions.hashing import stable_hash64

        return stable_hash64(domain) % self.n_parts

    def observe_domain_rows(self, domain_counts: dict[str, int]) -> list[SaltDecision]:
        """Fold observed LIVE row counts per domain (heavy-hitter feed from
        the merge metadata) into tracking state, and (re)salt any domain
        whose live volume crosses the threshold. Counts are absolute
        observations, merged monotonically (max). Returns decisions; the
        caller records them as pending migrations executed next apply."""
        decisions: list[SaltDecision] = []
        track_floor = max(1, self.salt_threshold_rows // 8)
        for d, c in domain_counts.items():
            cum = max(self.hot_counts.get(d, 0), int(c))
            if cum >= track_floor or d in self.hot_counts:
                self.hot_counts[d] = cum
            if cum < self.salt_threshold_rows:
                continue
            # re-salt only when CURRENT need outgrows the allocated capacity;
            # the allocation itself is oversized by SALT_HEADROOM so steady
            # growth triggers one migration, not one per doubling
            need_now = max(2, -(-cum // self.salt_target_rows))
            cur = self.salt_map.get(d)
            if cur is not None and len(cur) >= need_now:
                continue
            want_k = max(
                2,
                -(-int(cum * SALT_HEADROOM) // self.salt_target_rows),
            )
            old_parts = list(cur) if cur else [self.base_part(d)]
            new_parts = [self.base_part(d)] + [
                self.next_part + i for i in range(want_k - 1)
            ]
            self.next_part += want_k - 1
            self.salt_map[d] = new_parts
            decisions.append(SaltDecision(d, old_parts, new_parts))
        return decisions

    def max_part_id(self) -> int:
        return max(
            [self.n_parts - 1]
            + [p for parts in self.salt_map.values() for p in parts]
        )
