"""Legacy setup shim.

The execution environment has no network access and no ``wheel``
package, so PEP 660 editable installs cannot build; this shim lets
``pip install -e .`` fall back to ``setup.py develop``.
"""

from setuptools import setup

setup()
