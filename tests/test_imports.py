"""What importing the package and running each CLI command loads.

``import ucoset`` loads no module of the package, and each public name is
its module's own object on first use; a CLI process imports ``coset`` only
for coset kinds and dense files, and ``haar`` only to sample.
"""

import json
import os
import subprocess
import sys

import pytest

import ucoset
from ucoset import cli, coset, haar, householder, numkit

from golden_data import GOLDEN_DIR, random_unitary

MODULES = (numkit, householder, coset, haar)

# Runs one command in a fresh interpreter and prints what it loaded.
CHILD = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("ucoset."))
import ucoset
bare = loaded()
from ucoset import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"bare": bare, "code": code, "loaded": loaded()}))
"""

BASE = ["ucoset.cli", "ucoset.householder", "ucoset.numkit"]
WITH_COSET = sorted(BASE + ["ucoset.coset"])
COMMANDS = {
    "decompose-householder": (["decompose", "--input", "{u}", "--mode", "householder",
                               "--output", "{out}"], BASE),
    "reconstruct-householder": (["reconstruct", "--input", "{householder}", "--output", "{out}"],
                                BASE),
    "verify-householder": (["verify", "--input", "{householder}"], BASE),
    "verify-matrix": (["verify", "--input", "{u}"], BASE),
    "decompose-coset": (["decompose", "--input", "{u}", "--mode", "coset", "--output", "{out}"],
                        WITH_COSET),
    "reconstruct-coset-reversed": (["reconstruct", "--input", "{coset-reversed}",
                                    "--output", "{out}"], WITH_COSET),
    "verify-coset": (["verify", "--input", "{coset}"], WITH_COSET),
    "reconstruct-dense-householder": (["reconstruct", "--input", "{dense}", "--output", "{out}"],
                                      WITH_COSET),
    "sample": (["sample", "--dim", "4", "--count", "3", "--output", "{out}"],
               sorted(BASE + ["ucoset.haar"])),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    u = tmp / "u.json"
    u.write_text(json.dumps(cli._matrix_to_obj(random_unitary(6, 7))))
    paths = {"u": str(u), "dense": str(GOLDEN_DIR / "u0_householder.json"),
             "out": str(tmp / "out.json")}
    for mode in ("householder", "coset", "coset-reversed"):
        paths[mode] = str(tmp / f"{mode}.json")
        assert cli.main(["decompose", "--input", paths["u"], "--mode", mode,
                         "--output", paths[mode]]) == 0
    return paths


@pytest.mark.parametrize("argv, modules", COMMANDS.values(), ids=COMMANDS.keys())
def test_each_command_loads_only_the_modules_it_runs(files, argv, modules):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ucoset.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [a.format(**files) for a in argv]
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"bare": [], "code": 0, "loaded": modules}


def test_the_namespace_is_the_modules_own():
    names = list(dict.fromkeys(name for module in MODULES for name in module.__all__))
    assert ucoset.__all__ == names
    star = {}
    exec("from ucoset import *", star)
    del star["__builtins__"]
    assert star.keys() == set(names)
    for module in MODULES:
        for name in module.__all__:
            assert star[name] is getattr(ucoset, name) is getattr(module, name), name
    submodules = {module.__name__.rpartition(".")[2] for module in MODULES}
    assert set(names) | submodules <= set(dir(ucoset))
    for owner in (ucoset, cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            owner.no_such_name
