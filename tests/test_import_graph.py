"""Every arrkit process starts on numpy and the standard library alone.

scipy serves the tests as an oracle; loading `scipy.stats` costs about half a second
and 60 MB at each start of a CLI verb, so the package must not import it. The process
pool of the autoencoder search is imported only when a search starts one.
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
    """The autoencoder search loads its process pool when it runs one, so a process that
    imports arrkit without the pipeline pays no import of it at start-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(REPO, "src"), env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import arrkit\n"
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
