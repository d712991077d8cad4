"""Setuptools entry point.

A ``setup.py`` lets ``pip install -e .`` work in offline environments whose
setuptools/pip are too old for PEP 660 editable installs.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Simulation-based reproduction of SpotServe (ASPLOS 2024): "
        "serving generative LLMs on preemptible instances"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
)
