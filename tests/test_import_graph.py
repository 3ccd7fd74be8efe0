"""Every arrkit process starts on numpy and the standard library alone.

scipy serves the tests as an oracle; loading `scipy.stats` costs about half a second
and 60 MB at each start of a CLI verb, so the package must not import it. The process
pool of the searches is imported only when a search starts one.
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_importing_arrkit_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(REPO, "src"), env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import arrkit, arrkit.cli, arrkit.pipeline\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "[]", f"arrkit imports scipy: {out.stdout.strip()}"


def test_importing_arrkit_starts_no_process_pool_machinery():
    """The searches load their process pool when they run one, so a process that imports
    arrkit, its CLI or its pipeline pays no import of it at start-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(REPO, "src"), env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import arrkit, arrkit.cli, arrkit.pipeline\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "[]", f"arrkit imports: {out.stdout.strip()}"


def test_no_package_module_imports_scipy():
    package = os.path.join(REPO, "src", "arrkit")
    offenders = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "r", encoding="utf-8") as fh:
                if any(line.lstrip().startswith(("import scipy", "from scipy")) for line in fh):
                    offenders.append(name)
    assert offenders == []


_SIX_VERBS = """
import contextlib, io, os, sys
from arrkit.cli import main
from arrkit.config import RunConfig, SplitSpec, save_config
from arrkit.market_data import CoMovementSpec, RegimeSpec, SyntheticMarketConfig
out = sys.argv[1]
synth = SyntheticMarketConfig(n_assets=2, n_sessions=8, n_factors=1,
                              regime_schedule=(RegimeSpec(0, 8, 1.0, 0.5),),
                              comovement=CoMovementSpec(share_innovation=0.6), seed=5)
cfg = RunConfig(data_source="synthetic", splits=SplitSpec((0, 3), (3, 4), (7, 8)), synthetic=synth,
                models="pca", horizons=(300,), regression_families=("ridge",),
                classification_families=("logistic_l1",), crash_threshold=-1.0,
                forecast_search_iterations=2, cv_folds=2, seed=3, output_dir=out)
path = os.path.join(out, "config.json")
save_config(cfg, path)
for verb in ("generate", "train", "arr", "analyze", "forecast", "report"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([verb, "--config", path, "--out", out, *(["--threads", "1"] if verb == "forecast" else [])]) == 0, verb
print("numpy.ma" in sys.modules)
"""


def test_the_six_verbs_never_import_numpy_ma(tmp_path):
    """numpy 2's np.unique and np.percentile import numpy.ma on first use, 14-19 ms a
    process; no stage needs it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(REPO, "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _SIX_VERBS, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
