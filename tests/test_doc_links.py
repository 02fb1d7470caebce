"""scripts/check_doc_links.py: back-ticked repo paths must exist."""

from scripts.check_doc_links import check


def test_backticked_paths_are_resolved(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "Run `python scripts/check_doc_links.py` before a release.\n"
        "Timing lives in `benchmarks/bench_gone.py` and `bench_gone.py`.\n"
        "Placeholders such as `benchmarks/<file>` are not paths.\n"
        "```bash\n"
        "python examples/quickstart.py\n"
        "python examples/gone.py --tiny\n"
        "```\n"
    )
    problems = check(doc)
    assert len(problems) == 3
    assert ":2:" in problems[0] and "`benchmarks/bench_gone.py`" in problems[0]
    assert ":2:" in problems[1] and "`bench_gone.py`" in problems[1]
    assert ":6:" in problems[2] and "`examples/gone.py`" in problems[2]
