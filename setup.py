"""Legacy setup shim for editable installs on older setuptools."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of Clank: Architectural Support for Intermittent "
        "Computation (ISCA 2017)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
