"""A NaN tolerance is refused where it enters the library.

Every comparison with NaN is false, so a check written ``epsilon < 0`` lets
it through: ``svd_trunc`` then kept rank 0, the sweeps reported "epsilon too
large", and the search ran out its whole budget.  Each entry point writes
its check so that NaN fails it.
"""

import math

import numpy as np
import pytest

from conftest import decaying_train
from ttmera.dense import DenseTensor
from ttmera.experiments import planted_pair_tensor, random_mera_plant, run_compress
from ttmera.kernels import svd_trunc
from ttmera.mera import find_disentangler, mera_to_tt, tt_to_mera
from ttmera.train import merge_cores, orthogonalize, tt_contract, tt_round, tt_svd
from ttmera.tucker import sthosvd_dense, tt_to_hosvd

NAN = math.nan


def _supercore():
    tt = tt_svd(planted_pair_tensor(4, 2, 4)["tensor"], 0.0)
    return DenseTensor(merge_cores(orthogonalize(tt, 2), 2).core(2))


CALLS = {
    "svd_trunc": (lambda: svd_trunc(np.eye(3), NAN), "delta must be non-negative"),
    "tt_svd": (
        lambda: tt_svd(tt_contract(decaying_train(0, (3, 4, 3))), NAN),
        "epsilon must be non-negative",
    ),
    "tt_round": (
        lambda: tt_round(decaying_train(0, (3, 4, 3)), NAN),
        "epsilon must be non-negative",
    ),
    "tt_to_hosvd": (
        lambda: tt_to_hosvd(decaying_train(0, (3, 4, 3)), NAN),
        "epsilon must be non-negative",
    ),
    "sthosvd_dense": (
        lambda: sthosvd_dense(tt_contract(decaying_train(0, (3, 4, 3))), NAN),
        "epsilon must be non-negative",
    ),
    "tt_to_mera": (
        lambda: tt_to_mera(decaying_train(0, (2, 2, 2, 2)), 2, NAN),
        "epsilon must be non-negative",
    ),
    "mera_to_tt": (
        lambda: mera_to_tt(random_mera_plant(2, 2, order=4, layers=1), NAN),
        "round_eps must be non-negative",
    ),
    "find_disentangler": (
        lambda: find_disentangler(_supercore(), (4, 4), 2, gap_threshold=NAN),
        "gap threshold must exceed 1",
    ),
    "run_compress": (
        lambda: run_compress(tt_contract(decaying_train(0, (3, 4, 3))), NAN),
        "epsilon must be positive",
    ),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_nan_tolerance_is_refused(name):
    call, message = CALLS[name]
    with pytest.raises(ValueError, match=message):
        call()
