"""Package metadata: ``pip install .`` or ``pip install -e ".[test]"``.

The package needs only numpy.  The ``test`` extra adds the test runner,
its plugins and scipy, whose LP solver the safe-area rule uses (scipy
is imported only when that rule tests hull membership).  The version is
read from ``src/repro/_version.py``, its one definition.
"""

import runpy
from pathlib import Path

from setuptools import find_packages, setup

_VERSION_FILE = Path(__file__).resolve().parent / "src" / "repro" / "_version.py"

setup(
    name="repro",
    version=runpy.run_path(str(_VERSION_FILE))["__version__"],
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis", "scipy"]},
)
