from bench.checks import WIRE_TOL, from_payload, mismatched

REFERENCE = [
    (0.4839346408843994, False, ("g", "r", "i", "z", "y")),
    (0.5040984153747559, True, ("g", "i", "z", "y")),
    (0.4961386024951935, False, ("g", "r", "i", "z", "y")),
]


def test_identical_outputs_pass():
    assert mismatched(list(REFERENCE), REFERENCE) == []


def test_wire_rounding_passes():
    wire = [(round(p, 6), d, b) for p, d, b in REFERENCE]
    assert mismatched(wire, REFERENCE) == []


def test_perturbed_probability_is_caught():
    outputs = list(REFERENCE)
    p, degraded, bands = outputs[1]
    outputs[1] = (p + 3 * WIRE_TOL, degraded, bands)
    assert mismatched(outputs, REFERENCE) == [1]


def test_non_finite_probability_is_caught():
    outputs = list(REFERENCE)
    outputs[0] = (float("nan"), False, REFERENCE[0][2])
    assert mismatched(outputs, REFERENCE) == [0]


def test_flags_and_bands_must_match_exactly():
    outputs = list(REFERENCE)
    outputs[0] = (REFERENCE[0][0], True, REFERENCE[0][2])
    outputs[2] = (REFERENCE[2][0], False, ("g", "r", "i", "z"))
    assert mismatched(outputs, REFERENCE) == [0, 2]


def test_missing_outputs_all_fail():
    assert mismatched(REFERENCE[:2], REFERENCE) == [0, 1, 2]


def test_payload_wire_record():
    payload = {"result": {"probability": 0.5, "degraded": False, "usable_bands": ["g", "r"]}}
    assert from_payload(payload) == (0.5, False, ("g", "r"))
