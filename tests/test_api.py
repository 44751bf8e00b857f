"""The package namespace."""

import os
import subprocess
import sys

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


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs about 20 MB and 0.4 s to import; the package needs
    # only its normal tail, which scipy.special has
    src = os.path.dirname(os.path.dirname(stkrig.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, stkrig, stkrig.cli; print('scipy.stats' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
