"""Command-line entry point: ``python -m radiant_portal_pipeline_ray``.

Owns its Ray session (library code never calls ray.init — SURVEY driver
contract). Subcommands mirror the reference's operational surface
(import-part run / maintenance / data-QA,
`radiant/dags/import_radiant.py`, `radiant/dags/data_integrity_starrocks.py`):

    apply    --lake L --changelog DIR_OR_FILES [--n-parts N]
    tail     --lake L --changelog DIR [--poll-s S] [--max-rounds N]
             [--idle-exit K] [--batch-files B]   # WAL tail loop, resumable
    compact  --lake L [--min-files K] [--purge-tombstones]
    reshard  --lake L --new-n-parts N [--allow-rewind]
    gc       --lake L [--keep-versions K] [--staging-age-s S]
    tag      --lake L --name T [--version V | --delete]   # GC-pinned refs
    rollback --lake L --to-version V        # one-commit state revert
    checksums --lake L [--version V]        # per-partition anti-entropy
    clone    --lake L --dst D [--version V]  # instant hard-link COW fork
    qa       --lake L | --tenant-root D [--tenant T]
    show     --lake L [--history N]   # manifest summary; with --history,
             # one JSON line per version among the newest N (op, counts,
             # bytes, phase laps, rows quarantined), then {"versions": K}

Multi-tenant indirection (reference ``get_radiant_mapping`` analogue,
`radiant/tasks/data/radiant_tables.py:189-201`): every lake-taking
subcommand also accepts ``--tenant-root D --tenant T`` to resolve the lake
as ``D/T`` via ``tenancy.TenantCatalog``; ``qa --tenant-root D`` without
``--tenant`` runs the per-tenant QA loop over every committed tenant.
"""

from __future__ import annotations

import argparse
import json
import sys


def _resolve_lake(args) -> str:
    lake = getattr(args, "lake", None)
    troot = getattr(args, "tenant_root", None)
    tenant = getattr(args, "tenant", None)
    if troot and tenant:
        if lake:
            raise SystemExit("--lake and --tenant-root/--tenant are exclusive")
        from radiant_portal_pipeline_ray.tenancy import TenantCatalog

        return TenantCatalog(base_dir=troot).lake_root(tenant)
    if not lake:
        raise SystemExit("need --lake, or --tenant-root with --tenant")
    return lake


def _engine(args):
    from radiant_portal_pipeline_ray.config import EngineConfig
    from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine

    cfg = EngineConfig()
    if getattr(args, "n_parts", None):
        cfg.n_parts = args.n_parts
    return CdcEngine(_resolve_lake(args), cfg)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="radiant_portal_pipeline_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    def _tenant_args(sp_, lake_required=False):
        sp_.add_argument("--lake", required=lake_required, default=None)
        sp_.add_argument("--tenant-root", default=None)
        sp_.add_argument("--tenant", default=None)

    ap = sub.add_parser("apply", help="apply a changelog batch to the lake")
    _tenant_args(ap)
    ap.add_argument("--changelog", required=True, nargs="+")
    ap.add_argument("--n-parts", type=int, default=None)

    tp = sub.add_parser(
        "tail",
        help="continuously ingest a changelog directory (WAL tail; resumes "
        "from the manifest's consumed-inputs ledger)",
    )
    _tenant_args(tp)
    tp.add_argument("--changelog", required=True, help="directory to watch")
    tp.add_argument("--n-parts", type=int, default=None)
    tp.add_argument("--poll-s", type=float, default=2.0)
    tp.add_argument("--max-rounds", type=int, default=None)
    tp.add_argument(
        "--idle-exit",
        type=int,
        default=None,
        help="stop after this many consecutive empty polls (drain mode)",
    )
    tp.add_argument("--batch-files", type=int, default=None)

    cp = sub.add_parser("compact", help="compact partitions / purge tombstones")
    _tenant_args(cp)
    cp.add_argument("--min-files", type=int, default=2)
    cp.add_argument("--purge-tombstones", action="store_true")

    rp = sub.add_parser(
        "reshard", help="change the lake's base partition count (full rewrite)"
    )
    _tenant_args(rp)
    rp.add_argument("--new-n-parts", type=int, required=True)
    rp.add_argument("--allow-rewind", action="store_true")

    gp = sub.add_parser("gc", help="prune old manifests + orphaned files")
    _tenant_args(gp)
    gp.add_argument("--keep-versions", type=int, default=2)
    gp.add_argument(
        "--staging-age-s",
        type=float,
        default=3600.0,
        help="keep an unreferenced transaction's data files until its "
        "newest file is this many seconds old (an in-flight writer's files "
        "are referenced only at its commit)",
    )

    qp = sub.add_parser(
        "qa",
        help="run the post-commit QA suite (all tenants when --tenant-root "
        "is given without --tenant)",
    )
    _tenant_args(qp)

    sp = sub.add_parser("show", help="print the current manifest summary")
    _tenant_args(sp)
    sp.add_argument(
        "--history",
        type=int,
        default=None,
        metavar="N",
        help="instead, what each of the newest N retained versions did",
    )

    tg = sub.add_parser("tag", help="set/delete a named GC-pinned version ref")
    _tenant_args(tg)
    tg.add_argument("--name", required=True)
    tg.add_argument("--version", type=int, default=None)
    tg.add_argument("--delete", action="store_true")

    rb = sub.add_parser(
        "rollback", help="revert table state to a retained version (one commit)"
    )
    _tenant_args(rb)
    rb.add_argument("--to-version", type=int, required=True)

    ck = sub.add_parser(
        "checksums", help="per-partition anti-entropy checksums of a snapshot"
    )
    _tenant_args(ck)
    ck.add_argument("--version", type=int, default=None)

    cl = sub.add_parser("clone", help="instant writable fork (hard-link COW)")
    _tenant_args(cl)
    cl.add_argument("--dst", required=True)
    cl.add_argument("--version", type=int, default=None)

    args = p.parse_args(argv)

    needs_ray = args.cmd in ("apply", "tail", "compact", "reshard", "qa", "checksums")
    owns_session = False
    if needs_ray:
        import ray

        if not ray.is_initialized():
            ray.init(
                address="local", include_dashboard=False, logging_level="ERROR"
            )
            owns_session = True

    try:
        if args.cmd == "apply":
            eng = _engine(args)
            cl = args.changelog[0] if len(args.changelog) == 1 else args.changelog
            out = eng.apply(cl)
        elif args.cmd == "tail":
            from radiant_portal_pipeline_ray.pipelines.tail import tail

            reports = tail(
                _engine(args),
                args.changelog,
                poll_s=args.poll_s,
                max_rounds=args.max_rounds,
                idle_exit=args.idle_exit,
                batch_files=args.batch_files,
                on_report=lambda r: print(json.dumps(r, default=str)),
            )
            out = {"rounds": len(reports)}
        elif args.cmd == "compact":
            from radiant_portal_pipeline_ray.pipelines.maintenance import compact

            out = compact(
                _resolve_lake(args),
                min_files=args.min_files,
                purge_tombstones=args.purge_tombstones,
            )
        elif args.cmd == "reshard":
            from radiant_portal_pipeline_ray.config import EngineConfig
            from radiant_portal_pipeline_ray.pipelines.maintenance import reshard

            out = reshard(
                _resolve_lake(args),
                args.new_n_parts,
                EngineConfig(n_parts=args.new_n_parts),
                allow_rewind=args.allow_rewind,
            )
        elif args.cmd == "gc":
            from radiant_portal_pipeline_ray.state.manifest import Lake

            removed = Lake(_resolve_lake(args)).gc_orphans(
                keep_versions=args.keep_versions,
                staging_age_s=args.staging_age_s,
            )
            out = {"removed": removed}
        elif args.cmd == "qa":
            if args.tenant_root and not args.tenant:
                from radiant_portal_pipeline_ray.tenancy import TenantCatalog

                out = TenantCatalog(base_dir=args.tenant_root).qa_all()
            else:
                from radiant_portal_pipeline_ray.stages.qa import (
                    run_checks,
                    snapshot_checks,
                )

                eng = _engine(args)
                out = run_checks(eng.read_snapshot(), snapshot_checks())
        elif args.cmd == "tag":
            from radiant_portal_pipeline_ray.state.manifest import Lake

            lk = Lake(_resolve_lake(args))
            if args.delete:
                lk.delete_tag(args.name)
            else:
                if args.version is None:
                    raise SystemExit("tag: need --version (or --delete)")
                lk.set_tag(args.name, args.version)
            out = {"tags": lk.tags()}
        elif args.cmd == "clone":
            from radiant_portal_pipeline_ray.state.manifest import Lake

            dst = Lake(_resolve_lake(args)).clone_to(
                args.dst, version=args.version
            )
            out = {"dst": dst.root, "version": dst.current_manifest().version}
        elif args.cmd == "rollback":
            out = _engine(args).rollback(args.to_version)
        elif args.cmd == "checksums":
            t = _engine(args).snapshot_checksums(version=args.version)
            out = {"partitions": t.to_pylist()}
        elif args.cmd == "show" and args.history is not None:
            from radiant_portal_pipeline_ray.state.manifest import Lake

            if args.history < 1:
                raise SystemExit("show: --history needs N >= 1")
            rows = Lake(_resolve_lake(args)).history(args.history)
            for row in rows:
                print(json.dumps(row, default=str))
            out = {"versions": len(rows)}
        else:  # show
            from radiant_portal_pipeline_ray.state.manifest import Lake

            man = Lake(_resolve_lake(args)).current_manifest()
            if man is None:
                out = {"version": None}
            else:
                out = {
                    "version": man.version,
                    "txn_id": man.txn_id,
                    "n_parts": man.n_parts,
                    "partitions": len(man.partitions),
                    "rows": sum(st.rows for st in man.partitions.values()),
                    "tombstones": sum(
                        st.tombstones for st in man.partitions.values()
                    ),
                    "bytes": sum(st.bytes for st in man.partitions.values()),
                    "min_watermark": man.min_watermark(),
                    "salted_domains": sorted(man.salt_map),
                    "quarantine_files": len(man.quarantine_files),
                    "tags": Lake(_resolve_lake(args)).tags(),
                    "schema": [
                        [f.name, str(f.type)] for f in (man.schema or [])
                    ],
                }
        print(json.dumps(out, default=str))
        return 0
    finally:
        # only tear down a session WE created (a caller's session is theirs)
        if owns_session:
            import ray

            if ray.is_initialized():
                ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
