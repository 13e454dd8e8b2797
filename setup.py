"""Package metadata for ``repro`` (src/ layout, numpy its one dependency).

Plain ``setup()`` configuration with no ``pyproject.toml``, so
``pip install -e . --no-build-isolation --no-use-pep517`` also works
offline without the ``wheel`` package that PEP 660 editable installs
need.  The version is read from ``src/repro/__init__.py``.
"""

import pathlib
import re

from setuptools import find_packages, setup

INIT = pathlib.Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(), re.M)[1]

setup(
    name="repro",
    version=VERSION,
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
