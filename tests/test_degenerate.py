"""Degenerate inputs end in a certified result or a diagnosed failure.

Zero, rank-one and huge-trace tensors on co-located or far-apart
supports, with eps from 1e-6 to 1 and finite or hard fidelities, go
through the transport solver, the barycenter solver and ``qot transport
--report``.  Each must either be certified (converged, with finite primal
and dual values, so a finite duality gap) or say why not: a note that the
iteration budget ran out, or one naming each objective value that is not
finite.  The command line must exit 0 for the first and 2 for the second,
and its report must be strict JSON.  ``SolveReport.certified`` must
agree with each of these verdicts.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from helpers import oriented_tensor

from qot.barycenter import BarycenterProblem, barycenter_solve
from qot.cli import main
from qot.cost import euclidean_cost
from qot.fileio import save_field
from qot.measure import TensorMeasure
from qot.solver import SolverConfig, sinkhorn_solve

MAX_ITER = 300
TOL = 1e-6


def _tensor(kind, angle):
    return {
        "zero": np.zeros((2, 2)),
        "rank1": oriented_tensor(angle, 1.0, 0.0),
        "huge": oriented_tensor(angle, 1e300, 1e299),
        "full": oriented_tensor(angle, 1.0, 0.5),
    }[kind]


_KINDS = st.lists(st.sampled_from(["zero", "rank1", "huge", "full"]),
                  min_size=1, max_size=3)


def _measure(kinds, angles, x):
    points = np.array([[x, 0.5 * i] for i in range(len(kinds))])
    return TensorMeasure(points, np.stack(
        [_tensor(kind, angle) for kind, angle in zip(kinds, angles)]))


def _check_outcome(converged, primal, dual, notes):
    """Certified (a finite gap), else a note per reason; returns which."""
    if converged and math.isfinite(primal) and math.isfinite(dual):
        assert math.isfinite(primal - dual)
        return True
    if not converged:
        assert any(n.startswith("not converged: ") for n in notes), notes
    for key, value in (("primal_value", primal), ("dual_value", dual)):
        if not math.isfinite(value):
            assert any(n.startswith(f"{key} is not finite") for n in notes), notes
    return False


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(mu_kinds=_KINDS, nu_kinds=_KINDS,
       angles=st.lists(st.floats(0.0, math.pi), min_size=6, max_size=6),
       far=st.booleans(),
       eps=st.integers(-6, 0).map(lambda k: 10.0**k),
       rho=st.sampled_from([0.1, 1.0, math.inf]))
# Opposite overflows in the dual's linear term of a hard constraint.
@example(mu_kinds=["huge"], nu_kinds=["huge"], angles=[0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
         far=False, eps=1.0, rho=math.inf)
def test_degenerate_inputs_are_certified_or_diagnosed(mu_kinds, nu_kinds, angles,
                                                      far, eps, rho):
    mu = _measure(mu_kinds, angles[:3], 0.0)
    nu = _measure(nu_kinds, angles[3:], 30.0 if far else 0.0)
    cfg = SolverConfig(eps=eps, rho1=rho, rho2=rho, max_iter=MAX_ITER, tol=TOL)

    _, _, transport = sinkhorn_solve(mu, nu, euclidean_cost(mu.points, nu.points),
                                     cfg)
    assert transport.certified == _check_outcome(
        transport.converged, transport.primal_value, transport.dual_value,
        transport.notes)

    # A barycenter's input side needs a finite fidelity.
    if math.isfinite(rho):
        costs = tuple(euclidean_cost(m.points, mu.points) for m in (mu, nu))
        prob = BarycenterProblem((mu, nu), np.array([0.5, 0.5]), mu.points,
                                 costs)
        _, report = barycenter_solve(prob, cfg)
        assert report.certified == _check_outcome(
            report.converged, report.primal_value, report.dual_value,
            report.notes)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_field(tmp / "mu.json", mu)
        save_field(tmp / "nu.json", nu)
        code = main(["transport", "--mu", str(tmp / "mu.json"),
                     "--nu", str(tmp / "nu.json"), "--eps", repr(eps),
                     "--rho1", repr(rho), "--rho2", repr(rho),
                     "--max-iter", str(MAX_ITER), "--tol", repr(TOL),
                     "--out", str(tmp / "c.json"),
                     "--report", str(tmp / "r.json")])
        doc = json.loads((tmp / "r.json").read_text(),
                         parse_constant=_reject_constant)
    values = [math.inf if doc[key] is None else doc[key]
              for key in ("primal_value", "dual_value")]
    certified = _check_outcome(doc["converged"], *values, doc["notes"])
    assert code == (0 if certified else 2)
    # The command line ran the library's transport solve.
    assert certified == transport.certified
