"""Import hygiene: a cold ``import arclp`` loads the standard library,
numpy and the scipy modules that arclp uses, and nothing else."""
import json
import os
import subprocess
import sys

from conftest import ROOT

# What arclp imports from scipy.  Importing them loads more than scipy
# itself (numpy.f2py, and through it charset_normalizer where that is
# installed), so the modules they load are measured, not listed.
SCIPY_USED = ("scipy.linalg", "scipy.sparse", "scipy.sparse.csgraph")


def loaded_by(statement):
    """The modules that ``statement`` loads in a fresh interpreter."""
    code = ("import json, sys\nbefore = set(sys.modules)\n%s\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))"
            % statement)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path)).stdout
    return set(json.loads(out))


def test_import_loads_nothing_beyond_numpy_and_scipy():
    allowed = loaded_by("import numpy, " + ", ".join(SCIPY_USED))
    assert "numpy" in allowed and "scipy.sparse" in allowed
    extra = {name for name in loaded_by("import arclp") - allowed
             if name.split(".")[0] not in sys.stdlib_module_names
             and name.split(".")[0] != "arclp"}
    assert not extra, sorted(extra)
