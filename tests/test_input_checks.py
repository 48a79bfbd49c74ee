"""The library's own input checks: each malformed call raises its
exception with a message that names what is wrong."""

import dataclasses
import os
import tempfile

import numpy as np
import pytest

from opmor import irka
from opmor.errors import DatasetError
from opmor.funcspace import Patch, QuadratureGrid
from opmor.heat2d import FullModel
from opmor.models import PoleFactorModel
from opmor.projection import build_bases
from opmor.rom import ReducedModel
from opmor.samples import collect, load, save

U_GRID = QuadratureGrid(Patch(0.1, 0.3, 0.1, 0.3), 6)
Y_GRID = QuadratureGrid(Patch(0.6, 0.8, 0.6, 0.8), 6)


@pytest.fixture(scope="module")
def model():
    return FullModel(U_GRID, Y_GRID, 2)  # K = 4 modes


@pytest.fixture(scope="module")
def dataset(model):
    return collect(model, [1.0], ["mode:1,1"], [2.0], ["mode:1,1"])


def load_saved(ds):
    """samples.load of ds as samples.save wrote it, in a throwaway directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.json")
        save(ds, path)
        return load(path)


def factors(K, u_nodes, y_nodes):
    return PoleFactorModel(U_GRID, Y_GRID, -np.arange(1.0, K + 1),
                           np.ones((K, u_nodes)), np.ones((K, y_nodes)))


CHECKS = [
    pytest.param(lambda m, ds: irka.IrkaConfig(r=1, max_iter=-1),
                 ValueError, "max_iter must be nonnegative", id="irka-negative-max-iter"),
    pytest.param(lambda m, ds: irka.run(m, irka.IrkaConfig(r=5)),
                 ValueError, r"default init needs r <= 4 retained modes, got r = 5",
                 id="irka-default-init-above-K"),
    pytest.param(lambda m, ds: irka.run(m, irka.IrkaConfig(
                     r=2, init_points=[1.0, 2.0], init_right_dirs=["mode:1,1"],
                     init_left_dirs=["mode:1,1", "mode:1,2"])),
                 ValueError, "direction lists must match the order", id="irka-direction-count"),
    pytest.param(lambda m, ds: build_bases(m, [1.0], [], [2.0], ["mode:1,1"]),
                 ValueError, "point and direction lists must have equal length",
                 id="build-bases-mismatched-lists"),
    pytest.param(lambda m, ds: collect(m, [], [], [], []),
                 DatasetError, "dataset has no samples", id="collect-no-points"),
    pytest.param(lambda m, ds: collect(m, [1.0, 3.0], ["mode:1,1", "mode:1,2"],
                                       [2.0], ["mode:1,1"]),
                 DatasetError, "sample count mismatch: 2 right vs 1 left",
                 id="collect-unequal-counts"),
    pytest.param(lambda m, ds: dataclasses.replace(
                     ds, sigmas=ds.sigmas[:0], rhos=ds.rhos[:0], P=ds.P[:0], Q=ds.Q[:0],
                     right_values=ds.right_values[:0], left_values=ds.left_values[:0],
                     hermites={}),
                 DatasetError, "dataset has no samples", id="dataset-empty"),
    pytest.param(lambda m, ds: dataclasses.replace(ds, P=ds.P[:, :-1]),
                 DatasetError, r"P has shape \(1, 35\), expected \(1, 36\)",
                 id="dataset-misshapen-P"),
    pytest.param(lambda m, ds: load_saved(dataclasses.replace(ds, Q=np.zeros_like(ds.Q))),
                 ValueError, "left direction 0 is zero", id="dataset-zero-direction"),
    pytest.param(lambda m, ds: factors(2, U_GRID.size - 1, Y_GRID.size),
                 ValueError, "input factor array has wrong shape", id="factors-input-shape"),
    pytest.param(lambda m, ds: factors(2, U_GRID.size, Y_GRID.size + 1),
                 ValueError, "output factor array has wrong shape", id="factors-output-shape"),
    pytest.param(lambda m, ds: ReducedModel(np.eye(2, 3), np.eye(2, 3), np.ones((2, U_GRID.size)),
                                            np.ones((2, Y_GRID.size)), U_GRID, Y_GRID),
                 ValueError, "E and A must be square matrices of equal size",
                 id="rom-non-square-pencil"),
    pytest.param(lambda m, ds: ReducedModel(np.eye(2), np.eye(2), np.ones((2, U_GRID.size)),
                                            np.ones((1, Y_GRID.size)), U_GRID, Y_GRID),
                 ValueError, r"need 2 input representers on 36 nodes and 2 output columns",
                 id="rom-misshapen-C"),
]


@pytest.mark.parametrize("call, error, message", CHECKS)
def test_malformed_input_is_refused(model, dataset, call, error, message):
    with pytest.raises(error, match=message):
        call(model, dataset)
