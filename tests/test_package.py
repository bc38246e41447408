import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_reexports_nothing():
    """Each public name has one import path, its module: importing the
    package in a fresh interpreter defines no name and loads no submodule."""
    code = ("import json, sys, distreg; print(json.dumps(["
            "distreg.__file__, sorted(n for n in vars(distreg) if not n.startswith('_')), "
            "sorted(m for m in sys.modules if m.startswith('distreg.'))]))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    init, names, submodules = json.loads(out)
    assert Path(init) == SRC / "distreg" / "__init__.py"
    assert names == [] and submodules == []
