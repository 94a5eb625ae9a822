"""Minimal boto3-backed fsspec filesystem for ``s3://`` lakes.

Why this exists: the lake (`state/manifest.py`) talks to object stores
through fsspec, and its S3 commit path needs a *conditional PUT*
(``If-None-Match: *`` → 412 when the key exists) as the manifest CAS.
The usual fsspec S3 driver (s3fs) is an optional heavy dependency; this
module provides a self-contained fallback over boto3 that implements
exactly the operation surface the engine uses:

- ``Lake`` primitives: ``makedirs`` (no-op), ``ls``, ``exists``, ``isdir``,
  ``modified``, ``rm_file``, ``rm(recursive=True)``, ``find``, ``copy``,
  ``cat_file``, ``pipe_file(..., IfNoneMatch="*")``.
- pyarrow / Ray Data reads and writes through ``fsspec`` file objects
  (random-access reads via ranged GETs for Parquet footers; writes buffer
  per-block and upload as a single PUT or a multipart upload).

Instances are picklable (boto3 clients are rebuilt lazily per process),
so the filesystem can ride inside Ray tasks — ``MergeKernel`` and lake
scan read tasks each reconstruct their own client.

The endpoint honors ``endpoint_url=`` (storage option) or the standard
``AWS_ENDPOINT_URL`` environment variable, which is how the test suite
points the engine at a local moto server — the same S3 REST API surface
(conditional PUT included) as AWS.

Reference analogue: the reference integration-tests its lake against a
real MinIO container (`tests/integration/fixtures_docker.py:20-28`); this
is the equivalent seam for the Ray engine.
"""

from __future__ import annotations

import os

from fsspec import register_implementation
from fsspec.spec import AbstractBufferedFile, AbstractFileSystem


def _err_code(exc) -> str:
    try:
        return exc.response["Error"]["Code"]
    except (AttributeError, KeyError, TypeError):
        return ""


def _http_status(exc) -> int:
    try:
        return int(exc.response["ResponseMetadata"]["HTTPStatusCode"])
    except (AttributeError, KeyError, TypeError, ValueError):
        return 0


class Boto3S3FileSystem(AbstractFileSystem):
    """fsspec AbstractFileSystem over boto3, protocol ``s3``/``s3a``."""

    protocol = ("s3", "s3a")
    root_marker = ""

    def __init__(
        self,
        endpoint_url: str | None = None,
        region_name: str | None = None,
        key: str | None = None,
        secret: str | None = None,
        client_kwargs: dict | None = None,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.endpoint_url = endpoint_url or os.environ.get("AWS_ENDPOINT_URL")
        self.region_name = region_name or os.environ.get("AWS_REGION", "us-east-1")
        # resolve explicit env creds NOW so __reduce__ ships a working
        # config to Ray workers that lack the driver's env; left None
        # (e.g. IAM instance roles), boto3 resolves in-worker as usual
        self.key = key or os.environ.get("AWS_ACCESS_KEY_ID")
        self.secret = secret or os.environ.get("AWS_SECRET_ACCESS_KEY")
        self.client_kwargs = dict(client_kwargs or {})
        self._client = None
        self._client_pid = None

    # -- client ----------------------------------------------------------
    @property
    def client(self):
        # rebuilt after pickling AND after fork (a boto3 client must not be
        # shared across processes)
        pid = os.getpid()
        if self._client is None or self._client_pid != pid:
            import boto3
            from botocore.config import Config

            self._client = boto3.client(
                "s3",
                endpoint_url=self.endpoint_url,
                region_name=self.region_name,
                aws_access_key_id=self.key,
                aws_secret_access_key=self.secret,
                config=Config(retries={"max_attempts": 5, "mode": "standard"}),
                **self.client_kwargs,
            )
            self._client_pid = pid
        return self._client

    def __reduce__(self):
        # fsspec's cached metaclass normally pickles filesystems as
        # reconstruct-from-constructor-ARGS — but this instance may have
        # resolved its endpoint from the driver's AWS_ENDPOINT_URL env,
        # which a Ray worker does not inherit. Carry the RESOLVED config
        # so the worker talks to the same store regardless of its env.
        return (
            _rebuild_fs,
            (
                self.endpoint_url,
                self.region_name,
                self.key,
                self.secret,
                self.client_kwargs,
            ),
        )

    # -- path helpers ------------------------------------------------------
    def _split(self, path: str) -> tuple[str, str]:
        path = self._strip_protocol(path).lstrip("/")
        if "/" in path:
            bucket, k = path.split("/", 1)
        else:
            bucket, k = path, ""
        return bucket, k.rstrip("/")

    # -- directories are virtual ------------------------------------------
    def mkdir(self, path, create_parents=True, **kwargs):  # noqa: ARG002
        return None

    def makedirs(self, path, exist_ok=True):  # noqa: ARG002
        return None

    def rmdir(self, path):  # noqa: ARG002
        return None

    # -- listing -----------------------------------------------------------
    def ls(self, path, detail=True, **kwargs):  # noqa: ARG002
        bucket, key = self._split(path)
        prefix = f"{key}/" if key else ""
        paginator = self.client.get_paginator("list_objects_v2")
        files, dirs = [], []
        from botocore.exceptions import ClientError

        try:
            for page in paginator.paginate(
                Bucket=bucket, Prefix=prefix, Delimiter="/"
            ):
                for o in page.get("Contents", []):
                    files.append(
                        {
                            "name": f"{bucket}/{o['Key']}",
                            "size": o["Size"],
                            "type": "file",
                            "mtime": o.get("LastModified"),
                            "ETag": o.get("ETag"),
                        }
                    )
                for p in page.get("CommonPrefixes", []):
                    dirs.append(
                        {
                            "name": f"{bucket}/{p['Prefix'].rstrip('/')}",
                            "size": 0,
                            "type": "directory",
                        }
                    )
        except ClientError as e:
            if _err_code(e) in ("NoSuchBucket", "404"):
                raise FileNotFoundError(path) from e
            raise
        out = sorted(dirs + files, key=lambda e: e["name"])
        # an exact-key file listed by its parent prefix: ls("bucket/a/k")
        # must list the FILE itself, like POSIX ls on a file
        if not out and key:
            try:
                return [self.info(path)] if detail else [self._strip_protocol(path)]
            except FileNotFoundError:
                raise FileNotFoundError(path) from None
        if not out and not key:
            # empty-but-existing bucket → empty directory
            self.client.head_bucket(Bucket=bucket)
            return []
        return out if detail else [e["name"] for e in out]

    def info(self, path, **kwargs):  # noqa: ARG002
        bucket, key = self._split(path)
        from botocore.exceptions import ClientError

        if not key:
            try:
                self.client.head_bucket(Bucket=bucket)
            except ClientError as e:
                raise FileNotFoundError(path) from e
            return {"name": bucket, "size": 0, "type": "directory"}
        try:
            h = self.client.head_object(Bucket=bucket, Key=key)
            return {
                "name": f"{bucket}/{key}",
                "size": h["ContentLength"],
                "type": "file",
                "mtime": h.get("LastModified"),
                "ETag": h.get("ETag"),
            }
        except ClientError as e:
            if _err_code(e) not in ("404", "NoSuchKey") and _http_status(e) != 404:
                raise
        # no object at the key: a non-empty prefix is a virtual directory
        r = self.client.list_objects_v2(
            Bucket=bucket, Prefix=f"{key}/", MaxKeys=1
        )
        if r.get("KeyCount", 0) > 0:
            return {"name": f"{bucket}/{key}", "size": 0, "type": "directory"}
        raise FileNotFoundError(path)

    def find(self, path, maxdepth=None, withdirs=False, detail=False, **kwargs):
        # direct recursive listing (no per-level ls round-trips)
        if maxdepth is not None or withdirs:
            return super().find(
                path, maxdepth=maxdepth, withdirs=withdirs, detail=detail, **kwargs
            )
        bucket, key = self._split(path)
        prefix = f"{key}/" if key else ""
        paginator = self.client.get_paginator("list_objects_v2")
        out = {}
        from botocore.exceptions import ClientError

        try:
            for page in paginator.paginate(Bucket=bucket, Prefix=prefix):
                for o in page.get("Contents", []):
                    name = f"{bucket}/{o['Key']}"
                    out[name] = {
                        "name": name,
                        "size": o["Size"],
                        "type": "file",
                        "mtime": o.get("LastModified"),
                    }
        except ClientError as e:
            # only a missing bucket means "nothing there"; AccessDenied,
            # throttling or a 5xx must never read as an empty listing
            if _err_code(e) not in ("NoSuchBucket", "404") and _http_status(e) != 404:
                raise
            return {} if detail else []
        if not out and key:
            # find() on an exact file key returns that file
            try:
                i = self.info(path)
                if i["type"] == "file":
                    out[i["name"]] = i
            except FileNotFoundError:
                pass
        names = sorted(out)
        return {n: out[n] for n in names} if detail else names

    def modified(self, path):
        i = self.info(path)
        if i["type"] != "file" or i.get("mtime") is None:
            raise IsADirectoryError(path)
        return i["mtime"]

    # -- byte ops ----------------------------------------------------------
    def cat_file(self, path, start=None, end=None, **kwargs):  # noqa: ARG002
        bucket, key = self._split(path)
        from botocore.exceptions import ClientError

        rng = {}
        if start is not None or end is not None:
            s = start or 0
            rng["Range"] = f"bytes={s}-{'' if end is None else end - 1}"
        try:
            return self.client.get_object(Bucket=bucket, Key=key, **rng)[
                "Body"
            ].read()
        except ClientError as e:
            if _err_code(e) in ("NoSuchKey", "404") or _http_status(e) == 404:
                raise FileNotFoundError(path) from e
            raise

    def pipe_file(self, path, value, **kwargs):
        """PUT bytes. Extra kwargs pass through to ``put_object`` — the lake
        sends ``IfNoneMatch="*"`` for its manifest CAS; an existing key then
        raises FileExistsError (mapped from S3's 412 PreconditionFailed)."""
        bucket, key = self._split(path)
        from botocore.exceptions import ClientError

        try:
            self.client.put_object(Bucket=bucket, Key=key, Body=value, **kwargs)
        except ClientError as e:
            if (
                _err_code(e) in ("PreconditionFailed", "ConditionalRequestConflict")
                or _http_status(e) in (412, 409)
            ):
                raise FileExistsError(path) from e
            raise
        self.invalidate_cache(self._parent(path))

    def rm_file(self, path):
        bucket, key = self._split(path)
        self.client.delete_object(Bucket=bucket, Key=key)
        self.invalidate_cache(self._parent(path))

    _rm = rm_file

    def rm(self, path, recursive=False, maxdepth=None):  # noqa: ARG002
        if not recursive:
            return self.rm_file(path)
        names = self.find(path)
        if not names and not self.exists(path):
            raise FileNotFoundError(path)
        # batched deletes, 1000 keys per request (the S3 API cap)
        by_bucket: dict[str, list[str]] = {}
        for n in names:
            b, k = self._split(n)
            by_bucket.setdefault(b, []).append(k)
        for b, keys in by_bucket.items():
            for i in range(0, len(keys), 1000):
                self.client.delete_objects(
                    Bucket=b,
                    Delete={
                        "Objects": [{"Key": k} for k in keys[i : i + 1000]],
                        "Quiet": True,
                    },
                )
        self.invalidate_cache(path)

    def cp_file(self, path1, path2, **kwargs):  # noqa: ARG002
        b1, k1 = self._split(path1)
        b2, k2 = self._split(path2)
        self.client.copy_object(
            Bucket=b2, Key=k2, CopySource={"Bucket": b1, "Key": k1}
        )
        self.invalidate_cache(self._parent(path2))

    def created(self, path):
        return self.modified(path)

    def _open(
        self,
        path,
        mode="rb",
        block_size=None,
        autocommit=True,
        cache_options=None,
        **kwargs,
    ):
        return Boto3S3File(
            self,
            path,
            mode,
            block_size=block_size or 5 * 2**20,
            autocommit=autocommit,
            cache_options=cache_options,
            **kwargs,
        )


def _rebuild_fs(endpoint_url, region_name, key, secret, client_kwargs):
    return Boto3S3FileSystem(
        endpoint_url=endpoint_url,
        region_name=region_name,
        key=key,
        secret=secret,
        client_kwargs=client_kwargs,
    )


class Boto3S3File(AbstractBufferedFile):
    """Ranged-GET reads; single-PUT writes that escalate to a multipart
    upload when the buffered data crosses one block (5 MiB — the S3
    multipart minimum part size, so every non-final part is compliant).

    A multipart upload that cannot complete is aborted: when a part upload
    or the completion fails (in ``write`` or in ``close``), and on
    ``discard``. S3 keeps (and bills) the parts of an unaborted upload
    indefinitely. After a failure the file writes nothing, rather than an
    object missing parts."""

    def _fetch_range(self, start, end):
        if start >= end:
            return b""
        bucket, key = self.fs._split(self.path)
        from botocore.exceptions import ClientError

        try:
            return self.fs.client.get_object(
                Bucket=bucket, Key=key, Range=f"bytes={start}-{end - 1}"
            )["Body"].read()
        except ClientError as e:
            if _err_code(e) in ("InvalidRange",) or _http_status(e) == 416:
                return b""
            raise

    def _initiate_upload(self):
        self._mpu_id = None
        self._mpu_failed = False
        self._parts: list[dict] = []

    def _abort_upload(self):
        mpu_id, self._mpu_id = getattr(self, "_mpu_id", None), None
        if mpu_id is None:
            return
        bucket, key = self.fs._split(self.path)
        self.fs.client.abort_multipart_upload(
            Bucket=bucket, Key=key, UploadId=mpu_id
        )

    def discard(self):
        """Throw the file away: abort its upload; ``close`` writes nothing."""
        self._abort_upload()
        self.closed = True

    def close(self):
        if getattr(self, "_mpu_failed", False):
            # the write that hit the failure raised it; the upload is aborted
            self.closed = True
            return
        super().close()

    def _upload_chunk(self, final=False):
        if self._mpu_failed:
            raise OSError(f"multipart upload of {self.path} failed; aborted")
        bucket, key = self.fs._split(self.path)
        data = self.buffer.getvalue()
        if final and self._mpu_id is None:
            # whole file fits in one buffer → plain PUT
            self.fs.client.put_object(Bucket=bucket, Key=key, Body=data)
            self.fs.invalidate_cache(self.fs._parent(self.path))
            return True
        try:
            self._upload_part(bucket, key, data, final)
        except BaseException:
            self._mpu_failed = True
            self._abort_upload()
            raise
        return True

    def _upload_part(self, bucket, key, data, final):
        if self._mpu_id is None:
            self._mpu_id = self.fs.client.create_multipart_upload(
                Bucket=bucket, Key=key
            )["UploadId"]
        if data or not self._parts:
            n = len(self._parts) + 1
            part = self.fs.client.upload_part(
                Bucket=bucket,
                Key=key,
                PartNumber=n,
                UploadId=self._mpu_id,
                Body=data,
            )
            self._parts.append({"ETag": part["ETag"], "PartNumber": n})
        if final:
            self.fs.client.complete_multipart_upload(
                Bucket=bucket,
                Key=key,
                UploadId=self._mpu_id,
                MultipartUpload={"Parts": self._parts},
            )
            self._mpu_id = None
            self.fs.invalidate_cache(self.fs._parent(self.path))


_REGISTERED = False


def ensure_registered() -> None:
    """Register this driver for ``s3://`` URLs when s3fs is absent, so
    ``Lake("s3://bucket/lake")`` resolves without extra dependencies."""
    global _REGISTERED
    if _REGISTERED:
        return
    try:
        import s3fs  # noqa: F401  — the full driver wins when installed
    except ImportError:
        register_implementation("s3", Boto3S3FileSystem, clobber=True)
        register_implementation("s3a", Boto3S3FileSystem, clobber=True)
    _REGISTERED = True
