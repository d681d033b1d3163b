import json
import math

import pytest
from make_golden_reports import CORPUS, digest, environment, run

_CORPUS = json.loads(CORPUS.read_text())
# Report bytes are compared only on the numpy version and machine type that recorded
# them; elsewhere rounding may differ in the last bit, so the verdict values are compared.
_MODE = "sha256" if environment() == {k: _CORPUS[k] for k in ("numpy", "machine")} else "values"


def _agrees(want: dict, got: dict, mode: str) -> bool:
    if mode == "sha256":
        return got["sha256"] == want["sha256"]
    a, b = want["worst_defect"], got["worst_defect"]
    close = a is b is None or None not in (a, b) and math.isclose(a, b, rel_tol=1e-12)
    return close and (got["violations"], got["trial"]) == (want["violations"], want["trial"])


@pytest.mark.parametrize("mode", [_MODE])  # the test id names the mode that ran
def test_reports_match_the_golden_corpus(mode):
    # fixed-seed campaigns keep their report bodies; a declared report change
    # regenerates the corpus with tests/make_golden_reports.py in the same change
    assert len(_CORPUS["campaigns"]) >= 50
    wrong = []
    for want in _CORPUS["campaigns"]:
        got = digest(run(want))
        if not _agrees(want, got, mode):
            wrong.append((want["property"], want["config"], {k: (want[k], got[k]) for k in got if want[k] != got[k]}))
    assert not wrong, f"{len(wrong)} of {len(_CORPUS['campaigns'])} campaigns changed ({mode}): {wrong}"
