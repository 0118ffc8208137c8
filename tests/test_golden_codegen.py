"""Generated text is frozen: see :mod:`tests.golden_corpus`.

Every synthesized stage mapper, kernel, ``explain()`` rendering,
selection hint and wire JSON of the corpus must equal the golden
recorded before fluent ``Expr`` became sugar over ``SymExpr``; the
compiled block scanner's source for two shapes is pinned beside them.
"""

import json

import golden_corpus


def test_generated_text_matches_the_golden(tmp_path):
    with open(golden_corpus.GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    current = golden_corpus.snapshot(str(tmp_path))
    assert sorted(current) == sorted(golden)
    assert sorted(current["queries"]) == sorted(golden["queries"])
    for name, texts in golden["queries"].items():
        assert current["queries"][name] == texts, name
    for section in ("classic_explain", "remote_ops", "frozen_exprs",
                    "frozen_sources", "scanners"):
        assert current[section] == golden[section], section
