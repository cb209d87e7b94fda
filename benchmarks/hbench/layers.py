"""Per-layer metrics, computed from the spans of a traced pass. Their names
and units are listed in BENCHMARK.json.

Per-layer figures are totals over one traced pass over the workload's
document set, except the ``_us`` means per arithmetic call and the ratios.
``_ms`` figures are inclusive wall time (nested spans of the same metric
counted once); ``_self_ms`` figures subtract every traced child span.
"""

from __future__ import annotations

# Inclusive wall time: metric -> span names.
INCLUSIVE_MS = {
    "spectral.enum_ms": {"spectral.enumerate_spanning_elementary"},
    "spectral.leibniz_ms": {"spectral.det_leibniz"},
    "spectral.numeric_ms": {"spectral.numeric_inverse", "spectral.to_complex"},
    "spectral.assemble_ms": {"spectral.h_alpha_matrix", "spectral.matrix_init"},
    "spectral.multiply_ms": {"spectral.multiply"},
    "inverse.general_ms": {"inverse.inverse_entry_general"},
    "graph.enumerate_paths_ms": {"graph.enumerate_paths"},
    "graph.unique_cycle_ms": {"graph.unique_cycle"},
    "unicyclic.exhaustive_ms": {"unicyclic.exhaustive_diag_similarity"},
    "unicyclic.peg_info_ms": {"unicyclic.peg_info"},
    "matching.coaug_ms": {"matching.co_augmenting_paths"},
    "matching.certify_ms": {"matching.ensure_class_h"},
    "cyclotomic.render_ms": {"cyclotomic.render"},
    "documents.parse_ms": {"documents.parse_graph"},
}
GENERATE_MS = {"documents.generate_ms": {"documents.generate_instance"}}

# Self time: metric -> span name prefix.
SELF_MS = {
    "inverse.upm_self_ms": "inverse.inverse_bipartite_upm",
    "unicyclic.classify_self_ms": "unicyclic.classify_gamma_similarity",
    "cli.self_ms": "cli.",
}

# Call counts (column 0) and item counts (column 3): metric -> (span name prefix, column).
COUNTS = {
    "spectral.enum_calls": ("spectral.enumerate_spanning_elementary", 0),
    "spectral.enum_subgraphs": ("spectral.enumerate_spanning_elementary", 3),
    "spectral.det_elementary_calls": ("spectral.det_via_elementary", 0),
    "spectral.matrix_builds": ("spectral.matrix_init", 0),
    "spectral.entries_verified": ("spectral.matrix_init", 3),
    "inverse.general_calls": ("inverse.inverse_entry_general", 0),
    "graph.paths_found": ("graph.enumerate_paths", 3),
    "graph.remove_vertices_calls": ("graph.remove_vertices", 0),
    "matching.coaug_calls": ("matching.co_augmenting_paths", 0),
    "matching.coaug_paths": ("matching.co_augmenting_paths", 3),
    "matching.certify_calls": ("matching.ensure_class_h", 0),
    "cyclotomic.classify_entry_calls": ("cyclotomic.classify_entry", 0),
}

ARITHMETIC = ("add", "mul", "inv", "conj", "neg")
SPLIT_BY_ORDER = ("add", "mul", "inv")
ORDERS = (2, 3, 4, 5, 6)


def _mean_us(row) -> float:
    return row[1] / row[0] * 1e6 if row[0] else 0.0


def per_layer(stats, setup_stats, overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric from the traced pass (``stats``) and traced set-up."""
    out: dict[str, float] = {}
    for name in INCLUSIVE_MS:
        out[name] = stats.outer.get(name, 0.0) * 1e3
    out["documents.generate_ms"] = setup_stats.outer.get("documents.generate_ms", 0.0) * 1e3
    for name, prefix in SELF_MS.items():
        out[name] = stats.summed(prefix)[2] * 1e3
    for name, (prefix, col) in COUNTS.items():
        out[name] = stats.summed(prefix)[col]
    coaug = stats.get("matching.co_augmenting_paths")
    out["matching.coaug_hit_ratio"] = coaug[4] / coaug[0] if coaug[0] else 0.0
    for op in ARITHMETIC:
        row = stats.summed(f"cyclotomic.{op}.o")
        out[f"cyclotomic.{op}_calls"] = row[0]
        out[f"cyclotomic.{op}_us"] = _mean_us(row)
    for op in SPLIT_BY_ORDER:
        for k in ORDERS:
            out[f"cyclotomic.{op}_us.o{k}"] = _mean_us(stats.get(f"cyclotomic.{op}.o{k}"))
    out["trace_overhead_ratio"] = overhead_ratio
    return out
