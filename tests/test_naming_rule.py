"""One naming rule, with no second spelling: indexes build, codecs fit.

Every registered index (and each sharded configuration) builds without a
warning, returns itself from ``build`` and has no ``fit``; every codec
fits without a warning, returns itself from ``fit`` and has no ``build``.
"""

import warnings

import pytest

from repro.api import available_indexes, make_index
from repro.ann import AnisotropicQuantizer, ProductQuantizer
from repro.datasets import sift_like
from repro.quant.sq8 import Sq8Codec

from test_api_registry import CONFIGURATIONS, TINY_PARAMS, make_configuration

CODECS = {
    "ProductQuantizer": lambda: ProductQuantizer(4, 4, seed=0),
    "AnisotropicQuantizer": lambda: AnisotropicQuantizer(4, 4, seed=0),
    "Sq8Codec": Sq8Codec,
}


@pytest.fixture(scope="module")
def naming_dataset():
    return sift_like(n_points=300, n_queries=8, dim=16, n_clusters=4, gt_k=10, seed=5)


@pytest.mark.parametrize("config_id", sorted(CONFIGURATIONS))
def test_build_is_silent(config_id, naming_dataset):
    index = make_configuration(config_id)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        index.build(naming_dataset.base)
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]
    assert index.is_built


@pytest.mark.parametrize("name", sorted(available_indexes()))
def test_index_builds_and_has_no_fit(name, naming_dataset):
    index = make_index(name, **TINY_PARAMS[name])
    assert not hasattr(index, "fit")
    assert index.build(naming_dataset.base) is index


@pytest.mark.parametrize("codec", sorted(CODECS))
def test_fit_is_silent(codec, naming_dataset):
    quantizer = CODECS[codec]()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        quantizer.fit(naming_dataset.base)
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]


@pytest.mark.parametrize("codec", sorted(CODECS))
def test_codec_fits_and_has_no_build(codec, naming_dataset):
    quantizer = CODECS[codec]()
    assert not hasattr(quantizer, "build")
    assert quantizer.fit(naming_dataset.base) is quantizer
