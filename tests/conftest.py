import importlib.util
import os
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

CKERNELS_C = Path(__file__).resolve().parents[1] / "src" / "rbminor" / "kernels" / "_ckernels.c"


@pytest.fixture(scope="session")
def compiled_kernels(tmp_path_factory):
    """The shipped _ckernels.c, built by the interpreter's C compiler and
    linker command into a temporary directory and loaded beside pykernels,
    whichever backend `rbminor.kernels` picked.  -O1 rather than the -O3 of
    a release build: it builds in about half the time, and the tests
    compare answers, not speed."""
    link = shlex.split(sysconfig.get_config_var("LDSHARED") or "cc -shared")
    if shutil.which(link[0]) is None:
        pytest.skip(f"no C compiler found ({link[0]!r} is not on PATH)")
    target = tmp_path_factory.mktemp("ckernels") / (
        "_ckernels" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    subprocess.run(
        link + shlex.split(sysconfig.get_config_var("CCSHARED") or "")
        + ["-O1", "-fwrapv", "-I", sysconfig.get_paths()["include"],
           str(CKERNELS_C), "-o", str(target)],
        check=True,
        capture_output=True,
    )
    spec = importlib.util.spec_from_file_location("rbminor.kernels._ckernels", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
