"""The benchmark harness's self-test, run as its own process so that a
package change that breaks the harness's imports, trace mode or output
checks fails here. It writes only under the git-ignored perfbench/out/."""

import os
import subprocess
import sys

SELFTEST = os.path.join(os.path.dirname(__file__), "..", "perfbench", "selftest.py")


def test_perfbench_selftest():
    done = subprocess.run([sys.executable, SELFTEST], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest ok" in done.stdout
