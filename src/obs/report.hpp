// Run-report rendering and schema validation for the observability files.
//
// asareport consumes the artifacts the tools emit — an asa-metrics/1 JSON
// document (--metrics-out) and an asa-trace/2 (or /1) JSONL event stream
// (--trace-out) — and renders the human-facing summary: histogram
// percentile tables, a per-node protocol breakdown, and the top-k slowest
// commit instances reconstructed from the causal trace. CI's metrics smoke
// job uses validate_metrics_json() to reject malformed producers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace asa_repro::obs {

/// Structural validation of an asa-metrics/1 document. Returns nullopt
/// when valid, else a description of the first problem found.
[[nodiscard]] std::optional<std::string> validate_metrics_json(
    const JsonValue& root);

/// Structural validation of an asa-findings/1 document (emitted by
/// fsmcheck --json). Returns nullopt when valid, else a description of the
/// first problem. Validation is structural only: a document with findings
/// is valid — failing on findings is fsmcheck's exit code's job.
[[nodiscard]] std::optional<std::string> validate_findings_json(
    const JsonValue& root);

/// Render an asa-findings/1 document for humans: the run summary plus one
/// line per finding. The document must pass validate_findings_json.
[[nodiscard]] std::string render_findings(const JsonValue& root);

/// Structural validation of an asa-span/1 document (emitted by the tools'
/// --spans-out). Returns nullopt when valid, else the first problem: ids
/// must be contiguous from 1 with parents preceding children.
[[nodiscard]] std::optional<std::string> validate_spans_json(
    const JsonValue& root);

/// Structural validation of an asa-postmortem/1 bundle (emitted by
/// asachaos --postmortem-dir), including its embedded asa-metrics/1 and
/// asa-span/1 documents.
[[nodiscard]] std::optional<std::string> validate_postmortem_json(
    const JsonValue& root);

/// Dispatch on the document's "schema" member: asa-metrics/1,
/// asa-findings/1, asa-span/1 or asa-postmortem/1. An unknown schema
/// member is an error (asareport --validate exits non-zero on it).
[[nodiscard]] std::optional<std::string> validate_document_json(
    const JsonValue& root);

/// Per-commit critical-path attribution from an asa-span/1 document:
/// joins every committed root span to its decisive attempt and the
/// decisive replica's vote-collect/quorum spans, decomposes the end-to-end
/// latency into named phases (submit, retry, route, vote-collect, quorum,
/// ack), and renders per-phase p50/p99 plus the p99 commit's attribution
/// with the unattributed remainder reported explicitly.
[[nodiscard]] std::string render_critical_path(const JsonValue& spans_doc);

/// Render an asa-postmortem/1 bundle for humans: violations, the shrunk
/// plan, per-lane flight-recorder tails and embedded document stats.
[[nodiscard]] std::string render_postmortem(const JsonValue& root);

/// Compare two bench_execution asa-metrics/1 documents: per-impl ns/msg
/// (exec.wall_ns / exec.messages) in `current` must stay within
/// `tolerance` (fraction, e.g. 0.20) of `baseline`. `ok` is false when any
/// baseline impl regressed, improved past the gate, or disappeared.
struct BenchCompareResult {
  std::string report;
  bool ok = true;
};
[[nodiscard]] BenchCompareResult compare_bench_metrics(
    const JsonValue& baseline, const JsonValue& current, double tolerance);

/// One parsed trace event: a line of the asa-trace JSONL stream
/// FlightRecorder::write_jsonl writes.
struct ReportTraceEvent {
  std::uint64_t time = 0;
  std::uint32_t node = 0;
  std::string category;
  std::string detail;
};

/// Parse an asa-trace JSONL stream. Blank lines are skipped, and so is a
/// "schema" header naming asa-trace/1 or asa-trace/2; a header naming any
/// other schema, or any other malformed line, fails the parse.
[[nodiscard]] std::optional<std::vector<ReportTraceEvent>> parse_trace_jsonl(
    const std::string& text);

struct ReportOptions {
  std::size_t top_k = 10;  // Slowest commit instances to list.
};

/// Render the run summary from a parsed metrics document and (optionally)
/// trace events. Pure function of its inputs; deterministic.
[[nodiscard]] std::string render_report(
    const JsonValue& metrics, const std::vector<ReportTraceEvent>& trace,
    const ReportOptions& options = {});

/// Pull `key=value` out of a trace detail string ("guid=7 update=12
/// latency=3200"); nullopt when absent or non-numeric.
[[nodiscard]] std::optional<std::uint64_t> detail_field(
    const std::string& detail, const std::string& key);

}  // namespace asa_repro::obs
