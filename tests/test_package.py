"""The package's public surface."""

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
