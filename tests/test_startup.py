"""Start-up: what a fresh interpreter loads, and `python -m photofpt`.

Each test runs a new interpreter with src/ on the path, since modules that
an earlier test imported stay loaded for the rest of the session.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

from photofpt import __version__

SRC = Path(__file__).resolve().parents[1] / "src"

# the commands that read the rate curve, none of which needs scipy, an event
# stream, and the two finite-difference oracles behind the sphere's reference
# mean and check 8; the Monte Carlo runs must not load numpy.ma either, which
# np.unique imports on its first call, and nothing loads numpy.fft
GUARD = """
import contextlib, io, json, sys
import photofpt
from photofpt import cli, field, mc, validation
from photofpt.params import params_for_intensity

codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["rate", "--is", "3"], ["sweep", "--points", "5"],
                 ["mc", "--paths", "200"], ["mc", "--boundary", "cube", "--paths", "200"],
                 ["mc", "--boundary", "sphere", "--paths", "200"]):
        codes.append(cli.main(argv))
stream = mc.simulate_event_stream(
    mc.MCConfig(params=params_for_intensity(2.0), dt=1e-2, n_paths=100, seed=1), horizon=5.0)
validation.radial_mean_exit_time(1.0, 1.0, nr=101)
validation.pde_survival_1d(0.07, 1.0, params_for_intensity(1.0), nx=101)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
masked = "numpy.ma" in sys.modules
fft = "numpy.fft" in sys.modules
field.g_tau(1.0)
print(json.dumps({"codes": codes, "events": stream.count, "loaded": loaded, "masked": masked,
                  "fft": fft, "after_g_tau": "scipy.special" in sys.modules}))
"""


# every quadrature in the package: the survival quadrature of check 7 and
# field's two integrals behind checks 10 and 11 and the `field` command, all
# the one tanh-sinh rule on numpy arrays
QUADRATURES = """
import contextlib, io, json, sys
from photofpt import cli, validation

passed = [validation.run_check(cid).passed for cid in (7, 10, 11)]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(["field", "--points", "2"])
print(json.dumps({"passed": passed, "code": code,
                  "integrate": "scipy.integrate" in sys.modules}))
"""


def _python(*args, cwd=None) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, cwd=cwd, env={**os.environ, "PYTHONPATH": path})


def test_rate_sweep_and_mc_load_no_scipy():
    proc = _python("-c", GUARD)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert result["events"] > 0
    assert result["loaded"] == []
    assert not result["masked"]
    assert not result["fft"]
    # the exponential integrals load on g_tau's first call
    assert result["after_g_tau"]


def test_python_m_photofpt_runs_the_cli(tmp_path):
    proc = _python("-m", "photofpt", "--version", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"photofpt {__version__}\n"


def test_check_7_loads_no_scipy_integrate():
    proc = _python("-c", QUADRATURES)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"passed": [True, True, True], "code": 0,
                                       "integrate": False}
