"""Every routine that takes an array of points returns, per row of the
array, exactly what the point's batch-of-one slice returns: the same bits,
and for a failed row the error the batch of one raises, with its class,
message and fields."""

import dataclasses

import numpy as np
import pytest

from superconf import catalog
from superconf.construct import (build_phi_pair, dual_pair_report,
                                 extract_minimal_pair)
from superconf.errors import SuperconfError
from superconf.geometry import adapted_frame, fundamental_data
from superconf.jets import Jet2, row_failures
from superconf.moebius import Inversion, invert
from test_export import JET_FLOOR_PAIR

PAIRS = ("catenoid-helicoid", "enneper-r3", "q0-line", "q0-trig",
         "q0-trig-perturbed", "whitney", "jet-floor")


def assert_row(batch, alone, k, where):
    """Row k of a batch result equals row 0 of the batch-of-one result, bit
    for bit; a constant equals the constant."""
    if dataclasses.is_dataclass(alone):
        for f in dataclasses.fields(alone):
            if f.name != "ctx":      # build_phi_pair's own rows are tested
                assert_row(getattr(batch, f.name), getattr(alone, f.name), k,
                           f"{where}.{f.name}")
    elif isinstance(alone, Jet2) and np.ndim(alone.v) == 2:
        # a vector jet's batch axis is its last; a constant slot has one row
        for b, a in zip(batch.slots, alone.slots):
            assert_row(b.T, a.T, min(k, b.shape[1] - 1), where)
    elif isinstance(alone, Jet2):
        assert_row(batch.slots, alone.slots, k, where)
    elif isinstance(alone, dict):
        assert batch.keys() == alone.keys(), where
        for key in alone:
            assert_row(batch[key], alone[key], k, f"{where}[{key}]")
    elif isinstance(alone, (tuple, list)):
        assert len(batch) == len(alone), where
        for i, (b, a) in enumerate(zip(batch, alone)):
            assert_row(b, a, k, f"{where}[{i}]")
    elif alone is None:
        assert batch is None, where
    else:
        got, want = np.asarray(batch), np.asarray(alone)
        if want.ndim:
            got, want = got[k], want[0]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (
            where, got, want)


def as_rows(result):
    """A dataclass result with its (dim, n) vectors as (n, dim) rows, so
    that axis 0 is the batch axis of every field."""
    return dataclasses.replace(result, **{
        f.name: getattr(result, f.name).T for f in dataclasses.fields(result)
        if np.ndim(getattr(result, f.name)) == 2})


def assert_rows_match(run, batch_input, point_input, n, where):
    """run(batch_input) over n points inside a row_failures() sink against
    run(point_input(k)), the batch of one of row k, for every row k."""
    with np.errstate(all="ignore"):
        with row_failures(n) as failed:
            batch = run(batch_input)
        for k in range(n):
            try:
                alone = run(point_input(k))
            except SuperconfError as exc:
                [error] = [e for _, m, e in failed.checks if m[k]]
                recorded = error(k)
                assert (type(recorded), str(recorded), vars(recorded)) == (
                    type(exc), str(exc), vars(exc)), (where, k)
                continue
            assert not failed.rows()[k], (where, k, failed.counts())
            assert_row(batch, alone, k, where)
    return failed


@pytest.mark.parametrize("name", PAIRS)
def test_array_calls_match_point_calls_row_by_row(name):
    pair = JET_FLOOR_PAIR if name == "jet-floor" else catalog.get(name).pair
    # odd counts put grid points on the axes: h vanishes at the catenoid's
    # origin, a vanishes on its v = 0 line, the Whitney grid reaches into
    # its excluded disc, and the jet-floor pair divides by E = 0 at 0
    z = pair.domain.lattice(7, 5).ravel()
    failures = {}
    for run, where in ((lambda x: dual_pair_report(pair, x), "dual"),
                       (lambda x: dual_pair_report(pair, x, ("-",)),
                        "dual-")):
        failed = assert_rows_match(run, z, lambda k: z[k:k + 1], z.size,
                                   where)
        failures.update(failed.counts())

    with np.errstate(all="ignore"), row_failures(z.size) as built_rows:
        built = build_phi_pair(pair, z)
    ok = np.flatnonzero(~built_rows.rows())
    # an inversion centered on one of the built points is singular there
    center = built[1].phi.v.T[ok[len(ok) // 2]]
    for inv in (Inversion(center=(0.0, 0.0, 0.0, 5.0)),
                Inversion(center=center, radius=0.5)):
        for ps in built:
            for run, where in (
                    (lambda x: invert(x, inv), "invert"),
                    (lambda x: as_rows(extract_minimal_pair(invert(x, inv))),
                     "extract"),
                    (lambda x: as_rows(adapted_frame(fundamental_data(x))),
                     "frame")):
                failed = assert_rows_match(
                    run, ps.phi, lambda k: ps.phi.rows(slice(k, k + 1)),
                    z.size, f"{where} {ps.sign}")
                failures.update(failed.counts())
    # the rows cover failures as well as clean points
    assert failures, name
