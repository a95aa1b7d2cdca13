"""``import qmoments`` loads numpy with one OpenBLAS thread, and reports do
not depend on the BLAS thread count.

Each check runs in a fresh interpreter, since numpy is loaded once per
process.  The child's environment drops the three thread variables unless
a case sets one.
"""

import os
import re
import subprocess
import sys

import pytest

import qmoments

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="counts threads in /proc/self/task")


def child(args, **variables):
    src = os.path.dirname(os.path.dirname(qmoments.__file__))
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env.update(variables)
    return subprocess.run([sys.executable] + args, capture_output=True, text=True,
                          env=env, timeout=300)


def threads_after(imports, **variables):
    """Threads of a child after ``imports``, and its thread variables."""
    code = (f"import os\n{imports}\n"
            "print(len(os.listdir('/proc/self/task')))\n"
            f"print([os.environ.get(n) for n in {THREAD_VARIABLES!r}])")
    proc = child(["-c", code], **variables)
    assert proc.returncode == 0, proc.stderr
    count, names = proc.stdout.splitlines()
    return int(count), names


@needs_proc
def test_import_pins_one_thread_and_restores_the_environment():
    assert threads_after("import qmoments") == (1, "[None, None, None]")


@needs_proc
@pytest.mark.parametrize("imports, variables", [
    ("import qmoments", {"OPENBLAS_NUM_THREADS": "2"}),
    ("import qmoments", {"GOTO_NUM_THREADS": "2"}),
    ("import qmoments", {"OMP_NUM_THREADS": "2"}),
    ("import numpy\nimport qmoments", {}),
])
def test_caller_settings_leave_numpy_alone(imports, variables):
    assert threads_after(imports, **variables) == threads_after("import numpy", **variables)


@pytest.mark.parametrize("seed", [1, 52, 3001])
def test_report_does_not_depend_on_the_blas_thread_count(seed, tmp_path):
    reports = []
    for name, variables in (("pinned", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"})):
        out = tmp_path / f"{name}.json"
        proc = child(["-m", "qmoments.cli", "all", "--seed", str(seed), "--out", str(out)],
                     **variables)
        assert proc.returncode == 0, proc.stderr
        reports.append(re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', out.read_text()))
    assert reports[0] == reports[1]
