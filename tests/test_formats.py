"""Persisted formats: byte-exact round trips and DataError on any damage."""

import pytest

from gaitpass.errors import DataError
from gaitpass.l1g2 import local_code_from_text, local_code_to_text
from gaitpass.passtensor import passtensor_from_text, passtensor_to_text
from gaitpass.pssa import model_from_text, model_to_text
from gaitpass.symbolic import coding_from_text, coding_to_text

FORMATS = {
    "passtensor.txt": (passtensor_from_text, passtensor_to_text),
    "codebook_feet.txt": (local_code_from_text, local_code_to_text),
    "model.txt": (model_from_text, model_to_text),
    "coding.txt": (coding_from_text, coding_to_text),
}


TOO_BIG = "99999999999999999999"  # past int64; a float field reads it


def is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def is_integer(token):
    try:
        int(token)
    except ValueError:
        return False
    return True


def damaged_copies(lines, hit, replacement):
    """One copy of the file per token ``hit`` accepts, set to ``replacement``."""
    for i, line in enumerate(lines):
        tokens = line.rstrip("\n").split(" ")
        for j, token in enumerate(tokens):
            if hit(token):
                damaged = tokens[:j] + [replacement] + tokens[j + 1 :]
                yield "".join(lines[:i] + [" ".join(damaged) + "\n"] + lines[i + 1 :])


@pytest.mark.parametrize("name", FORMATS)
def test_round_trip_and_damage(name, persisted_files):
    parse, write = FORMATS[name]
    text = persisted_files[name].read_text()
    assert write(parse(text)) == text

    lines = text.splitlines(keepends=True)
    for cut in range(len(lines)):
        with pytest.raises(DataError, match=f"^line {cut + 1}:"):
            parse("".join(lines[:cut]))
    # every numeric token set to x or a non-finite float, and every
    # integer token past int64
    for hit, replacement in ((is_number, "x"), (is_number, "nan"),
                             (is_number, "-inf"), (is_integer, TOO_BIG)):
        copies = 0
        for damaged in damaged_copies(lines, hit, replacement):
            copies += 1
            with pytest.raises(DataError):
                parse(damaged)
        assert copies > 0


@pytest.mark.parametrize("name, key", [
    ("coding.txt", "S0 X"),
    ("codebook_feet.txt", "row_std"),
    ("model.txt", "threshold"),
])
def test_non_finite_float_fields_rejected(name, key, persisted_files):
    parse, _ = FORMATS[name]
    lines = persisted_files[name].read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(key + " "))
    values = lines[at][len(key) :].split()
    lines[at] = " ".join([key, *["nan"] * len(values)])
    with pytest.raises(
        DataError, match=f"^line {at + 1}: number 'nan' is not finite"
    ):
        parse("\n".join(lines) + "\n")
