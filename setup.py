"""Setup shim for environments without the `wheel` package.

`pip install -e .` uses PEP 517 editable builds, which require wheel;
offline boxes that lack it can run `python setup.py develop` instead.
Both read the package metadata (the `src/` layout, the version, the
numpy dependency and the `repro` command) from pyproject.toml.
"""
from setuptools import setup

setup()
