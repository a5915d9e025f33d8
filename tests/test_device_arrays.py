"""The device held as numpy columns, against the references of
``tests/oracles.py``, which hold it as Python lists and a pair dict.

Random calibration documents cover sparse pair sets, pairs listed in
shuffled order and reversed, listed zero-error pairs, no pairs, one qubit
and integer rates, with and without faults. For each, the parsed columns,
the ``to_json`` text, every error message, the bits of every qubit score
and the rank must equal the references'.
"""

import copy
import json
import tracemalloc

import numpy as np
import pytest

from sizecon.device import DeviceModel, qubit_scores, rank_qubits

from devices import make_device
from oracles import (
    CALIBRATION_KEYS,
    reference_calibration_json,
    reference_read_calibration,
    reference_scores,
)

# values a rate or error may take in a valid document: floats, exact zeros
# (a listed zero-error pair among them), and the integers 0 and 1
VALID_RATES = (0, 1, 0.0, 1.0, -0.0, 5e-324)
# what a fault puts in place of a rate or error: out of range, not a number
# a calibration reads, or a number too large for float64
BAD_RATES = (1.5, -0.1, 2, -1, float("nan"), float("inf"), 10**30, 10**400, "0.1", True, None, [0.1])
BAD_PAIRS = ([0, 0], [0, 99], [-1, 0], [0, 10**30], [10**400, 1], [0, 1.0], [0, True], [0],
             [0, 1, 2], "01", None, {"0": 0, "1": 1}, 7)
BAD_ENTRIES = ([], "x", None, 3)
MISSING = object()


def rate(rng):
    if rng.random() < 0.3:
        return VALID_RATES[rng.integers(len(VALID_RATES))]
    return float(rng.uniform(0, 0.3))


def random_payload(rng, n):
    """A valid document of ``n`` qubits: a random subset of the pairs, in
    shuffled order, each listed as (min, max) or reversed."""
    qubits = [{key: rate(rng) for key in CALIBRATION_KEYS} for _ in range(n)]
    every = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = rng.permutation(len(every))[: rng.integers(len(every) + 1)]
    pairs = []
    for index in chosen.tolist():
        a, b = every[index]
        pairs.append({"pair": [b, a] if rng.random() < 0.5 else [a, b], "error": rate(rng)})
    return {"qubits": qubits, "two_qubit_error": pairs}


def inject_fault(rng, payload):
    """One fault at a random place of ``payload``, in place."""
    n, pairs = len(payload["qubits"]), payload["two_qubit_error"]
    kind = rng.integers(7 if pairs else 3)
    if kind == 0:  # a rate
        entry = payload["qubits"][rng.integers(n)]
        key = CALIBRATION_KEYS[rng.integers(3)]
        value = BAD_RATES[rng.integers(len(BAD_RATES))] if rng.random() < 0.9 else MISSING
        if type(entry) is not dict:  # a whole entry at fault already
            pass
        elif value is MISSING:
            del entry[key]
        else:
            entry[key] = value
    elif kind == 1:  # a whole qubit entry
        payload["qubits"][rng.integers(n)] = BAD_ENTRIES[rng.integers(len(BAD_ENTRIES))]
    elif kind == 2:  # a pair that leaves the device, at the end
        pairs.append({"pair": [0, n], "error": 0.5})
    elif kind == 3:  # a pair listed again later, in either order
        j = rng.integers(len(pairs))
        pair = pairs[j].get("pair") if type(pairs[j]) is dict else None
        if type(pair) is list:
            again = {"pair": pair[:: 1 if rng.random() < 0.5 else -1], "error": 0.25}
            pairs.insert(rng.integers(j + 1, len(pairs) + 1), again)
    elif kind == 4:  # a pair's indices
        pairs[rng.integers(len(pairs))]["pair"] = copy.deepcopy(BAD_PAIRS[rng.integers(len(BAD_PAIRS))])
    elif kind == 5:  # a pair's error
        value = BAD_RATES[rng.integers(len(BAD_RATES))] if rng.random() < 0.9 else MISSING
        entry = pairs[rng.integers(len(pairs))]
        if value is MISSING:
            del entry["error"]
        else:
            entry["error"] = value
    else:  # a whole pair entry
        pairs[rng.integers(len(pairs))] = BAD_ENTRIES[rng.integers(len(BAD_ENTRIES))]


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def check_against_references(text):
    """``DeviceModel.from_json(text)`` raises the reference's message, or
    holds the reference's values, as floats, and writes, scores and ranks
    them as the references do."""
    try:
        qubits, pairs = reference_read_calibration(text)
    except ValueError as error:
        with pytest.raises(ValueError) as caught:
            DeviceModel.from_json(text)
        assert str(caught.value) == str(error)
        return None
    device = DeviceModel.from_json(text)
    qubits = [tuple(map(float, rates)) for rates in qubits]
    pairs = {pair: float(p) for pair, p in pairs.items()}
    assert device.qubits.tolist() == [list(rates) for rates in qubits]
    assert device.pairs.tolist() == [list(pair) for pair in pairs]
    assert bits(device.pair_errors) == bits(list(pairs.values()))
    assert device.to_json() == reference_calibration_json(qubits, pairs)
    scores = reference_scores(qubits, pairs)
    assert bits(qubit_scores(device)) == bits(scores)
    assert rank_qubits(device) == [q for _, q in sorted(zip(scores, range(len(qubits))))]
    # every ordered pair, listed or not, looked up at once
    a, b = np.divmod(np.arange(len(qubits) ** 2), len(qubits))
    expected = [pairs.get((min(x, y), max(x, y)), 0.0) for x, y in zip(a.tolist(), b.tolist())]
    assert bits(device.pair_error(a, b)) == bits(expected)
    return device


@pytest.mark.parametrize("seed", range(40))
def test_valid_documents_match_references(seed):
    rng = np.random.default_rng(seed)
    n = [1, 2, 3, 5, 9, 16][seed % 6]
    payload = random_payload(rng, n)
    if seed % 5 == 0:
        payload["two_qubit_error"] = []
    if seed % 7 == 0:
        del payload["two_qubit_error"]
    assert check_against_references(json.dumps(payload)) is not None


@pytest.mark.parametrize("seed", range(300))
def test_faulty_documents_match_references(seed):
    rng = np.random.default_rng(1000 + seed)
    payload = random_payload(rng, int(rng.integers(1, 9)))
    for _ in range(rng.integers(1, 3)):
        inject_fault(rng, payload)
    check_against_references(json.dumps(payload))


@pytest.mark.parametrize(
    "text",
    ["{}", "[]", "3", '{"qubits": null}', '{"qubits": {}}', '{"qubits": [], "two_qubit_error": {}}',
     '{"qubits": [{"readout_p10": 2, "readout_p01": 0, "single_qubit_error": 0}],'
     ' "two_qubit_error": null}', '{"qubits": []}'],
)
def test_list_level_documents_match_references(text):
    check_against_references(text)


@pytest.mark.parametrize("seed", range(20))
def test_constructor_matches_references(seed):
    """A device built from columns holds, scores and ranks what the
    references do, and a value fault reads as the reference's message
    without the entry it names."""
    rng = np.random.default_rng(2000 + seed)
    payload = random_payload(rng, int(rng.integers(1, 9)))
    qubits = [tuple(float(entry[key]) for key in CALIBRATION_KEYS) for entry in payload["qubits"]]
    pairs = {tuple(entry["pair"]): float(entry["error"]) for entry in payload["two_qubit_error"]}
    if seed % 2 and pairs:  # a value fault: a rate out of range, or a pair again
        fault = int(rng.integers(3))
        if fault == 0:
            qubits[int(rng.integers(len(qubits)))] = (0.1, 1.5, 0.0)
        elif fault == 1:
            pairs[next(iter(pairs))] = -0.25
        else:
            pairs[tuple(reversed(next(iter(pairs))))] = 0.5
    document = {
        "qubits": [dict(zip(CALIBRATION_KEYS, rates)) for rates in qubits],
        "two_qubit_error": [{"pair": list(pair), "error": p} for pair, p in pairs.items()],
    }
    try:
        reference_read_calibration(json.dumps(document))
    except ValueError as error:
        with pytest.raises(ValueError) as caught:
            make_device(qubits, pairs)
        message = str(error).partition("].")[2]
        assert str(caught.value) == message
        return
    device = make_device(qubits, pairs)
    ordered = {(min(pair), max(pair)): p for pair, p in pairs.items()}
    assert device.to_json() == reference_calibration_json(qubits, ordered)
    scores = reference_scores(qubits, ordered)
    assert bits(qubit_scores(device)) == bits(scores)
    assert rank_qubits(device) == [q for _, q in sorted(zip(scores, range(len(qubits))))]


def test_integer_rates_are_written_back_as_floats():
    text = json.dumps({
        "qubits": [{"readout_p10": 0, "readout_p01": 1, "single_qubit_error": 0}] * 2,
        "two_qubit_error": [{"pair": [1, 0], "error": 1}],
    })
    written = DeviceModel.from_json(text).to_json()
    assert written.count('"readout_p10": 0.0,') == written.count('"readout_p01": 1.0,') == 2
    assert '"error": 1.0\n' in written and ": 0," not in written and ": 1," not in written


def test_columns_are_read_only():
    device = make_device([(0.01, 0.02, 0.003)] * 2, {(1, 0): 0.1})
    for column in (device.qubits, device.pairs, device.pair_errors):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0


def test_sparse_device_of_many_qubits_stays_small():
    """A file may list many qubits and a few pairs: no array of the device,
    its scores or its lookups may grow as the square of the qubits (5000**2
    bools alone would take 25 MB)."""
    n = 5000
    text = json.dumps({
        "qubits": [{"readout_p10": 0.01, "readout_p01": 0.02, "single_qubit_error": 0.001}] * n,
        "two_qubit_error": [{"pair": [n - 1, 0], "error": 0.01}, {"pair": [17, 3], "error": 0.02}],
    })
    tracemalloc.start()
    try:
        device = DeviceModel.from_json(text)
        order = rank_qubits(device)
        written = device.to_json()
        lookups = device.pair_error(np.arange(n), np.arange(n)[::-1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
    assert order[-4:] == [0, n - 1, 3, 17] and written.count('"pair"') == 2
    assert lookups[0] == lookups[-1] == 0.01 and np.count_nonzero(lookups) == 2
