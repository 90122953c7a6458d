import time

import numpy as np
import pytest

import neucrit as nc

REF5_KNOTS = [(-2.0, 2.5), (-1.0, -3.0), (0.0, 2.5), (1.0, -3.0), (2.0, 2.5)]

# config keys that once were settings and are now module constants; a config
# that sets any of them is rejected
REMOVED_SETTINGS = (
    ("solver", "grad_tol"), ("solver", "max_iters"), ("solver", "path_nodes"),
    ("solver", "dedup_radius"), ("solver", "mp_offset"), ("solver", "safety_factor"),
    ("solver", "degeneracy_tol"), ("solver", "simplicity_tol"),
    ("solver", "lambda_count"), ("solver", "homotopy_budget"),
    ("solver", "homotopy_start_radius"),
    ("reduction", "inner_tol"), ("reduction", "max_inner"),
    ("ledger", "qual_tol"), ("ledger", "range_margin"),
)


@pytest.fixture(scope="session")
def ref5():
    """REF5 instance on [0, pi], 16 modes, oversampled quadrature."""
    dom = nc.Domain("interval", (np.pi,), 512)
    spec = nc.split_spectrum(nc.build_spectrum(dom, 16), 2.5)
    f = nc.build_nonlinearity(REF5_KNOTS, 2.5, 2.5)
    func = nc.EnergyFunctional(spec, f)
    return spec, f, func


@pytest.fixture(scope="session")
def ref5_ctx(ref5):
    _, _, func = ref5
    return nc.make_reduction_context(func)


@pytest.fixture(scope="session")
def reference_report():
    """One full pipeline run on the reference instance, shared by the
    integration and acceptance tests.  Wall time is kept for the budget
    criterion."""
    t0 = time.perf_counter()
    rep = nc.run_pipeline(nc.reference_config())
    rep.elapsed = time.perf_counter() - t0
    return rep
