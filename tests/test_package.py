"""The package's public surface."""

import os
import subprocess
import sys

import conefourier
from conefourier import (kernel, multivariate, quadrature, transforms,
                         univariate, verify)


def test_top_level_exports_every_public_name():
    # everything public in a library module is re-exported at the top
    # level, and nothing else is
    public = set().union(*(m.__all__ for m in (kernel, univariate,
                                                multivariate, quadrature,
                                                transforms, verify)))
    assert set(conefourier.__all__) - {"__version__"} == public
    assert all(hasattr(conefourier, name) for name in conefourier.__all__)


def test_package_and_cli_import_only_numpy():
    # the runtime dependency is numpy alone: importing the package and
    # its command line loads none of the test-only libraries
    code = ("import sys, conefourier, conefourier.cli; "
            "print(sorted({'scipy', 'mpmath', 'sympy'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(conefourier.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
