"""The package namespace."""

import stkrig
import stkrig.indeptest
import stkrig.spectral


def test_every_exported_name_resolves():
    assert len(set(stkrig.__all__)) == len(stkrig.__all__)
    for name in stkrig.__all__:
        assert getattr(stkrig, name) is not None
    namespace = {}
    exec("from stkrig import *", namespace)
    assert set(stkrig.__all__) <= set(namespace)


def test_partition_frequencies_is_defined_once():
    assert stkrig.partition_frequencies is stkrig.spectral.partition_frequencies
    assert stkrig.indeptest.partition_frequencies is stkrig.spectral.partition_frequencies
