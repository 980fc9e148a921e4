"""The README's library example runs as written against the package."""

import re
from pathlib import Path

from pktstats import GeneratorSpec, generate_synthetic, write_packet_csv

README = Path(__file__).resolve().parents[1] / "README.md"


def library_session() -> str:
    """The code block that follows "A minimal library session:"."""
    text = README.read_text(encoding="utf-8")
    match = re.search(r"A minimal library session:\n+```python\n(.*?)```", text, re.S)
    assert match, "README has no minimal library session block"
    return match.group(1)


def test_minimal_library_session_runs_verbatim(tmp_path, monkeypatch):
    # The README's quick-start mixture, 3000 packets, all valid.
    spec = GeneratorSpec(
        n_isolated_pairs=40,
        supernode_leaf_count=30,
        core_size=8,
        core_density=0.4,
        core_leaf_count=10,
        seed=42,
    )
    records, _ = generate_synthetic(spec, 3000)
    write_packet_csv(tmp_path / "traffic.csv.gz", records)
    monkeypatch.chdir(tmp_path)

    session: dict = {}
    exec(compile(library_session(), str(README), "exec"), session)

    assert session["matrix"].total == 500
    assert session["pooled"].kind == "source_fan_out"
    assert session["fit"].params.d_max == session["pooled"].d_max
    breakdown = session["breakdown"]
    assert breakdown.residual_packets == 0 and breakdown.residual_links == 0
