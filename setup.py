"""Legacy setup shim.

The execution environment has no network access and no ``wheel`` package,
so PEP 517 editable installs fail; ``pip install -e . --no-use-pep517``
(or a plain ``pip install -e .`` on modern environments) uses this shim.
There is no ``pyproject.toml`` or ``setup.cfg`` beside it and nothing
depends on installing: the tests, examples and ``python -m bench`` all
run from the repo root with ``PYTHONPATH=src`` (see ``README.md``).
"""

from setuptools import setup

setup()
