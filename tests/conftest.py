import logging
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray
    from ray.data import DataContext

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture()
def tmp_lake(tmp_path):
    return str(tmp_path / "lake")


@pytest.fixture(scope="module")
def moto_s3():
    """Threaded moto S3 server on an ephemeral port; env vars route both
    driver-side ``Lake("s3://…")`` construction and boto3 credential
    resolution at it. Ray workers need no env: the fs instance pickles
    with the endpoint baked in."""
    pytest.importorskip("boto3")
    pytest.importorskip("moto")
    from moto.server import ThreadedMotoServer

    logging.getLogger("werkzeug").setLevel(logging.CRITICAL)
    server = ThreadedMotoServer(ip_address="127.0.0.1", port=0)
    server.start()
    port = server._server.socket.getsockname()[1]
    endpoint = f"http://127.0.0.1:{port}"
    keys = ("AWS_ENDPOINT_URL", "AWS_ACCESS_KEY_ID", "AWS_SECRET_ACCESS_KEY")
    saved = {k: os.environ.get(k) for k in keys}
    os.environ["AWS_ENDPOINT_URL"] = endpoint
    os.environ["AWS_ACCESS_KEY_ID"] = "graft-test"
    os.environ["AWS_SECRET_ACCESS_KEY"] = "graft-test"
    yield endpoint
    from radiant_portal_pipeline_ray.state.s3boto import Boto3S3FileSystem

    # fsspec caches instances by constructor args; a cached fs would keep
    # the endpoint of this (stopped) server for the next module's server
    Boto3S3FileSystem.clear_instance_cache()
    for k, v in saved.items():
        if v is None:
            os.environ.pop(k, None)
        else:
            os.environ[k] = v
    server.stop()
