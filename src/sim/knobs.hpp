#pragma once
// The knob table: one description of every job knob a tool flag, a sweep
// axis, a job-object member, a report column or a snapshot key can name.
// Each entry gives the member name, the flag, the help line, the accepted
// range and the SuiteOptions field it reads and writes; its default is
// whatever SuiteOptions{} holds. The tools' flag parsers and help, the
// sweep grid, the wire protocol's job object, the CSV and stats-JSON config
// columns and the server's snapshot key all loop over this table, so a new
// knob is one entry here and nothing else.

#include <optional>
#include <span>
#include <string>
#include <variant>

#include "sim/runner.hpp"
#include "trace/json.hpp"

namespace mlp::sim {

/// A knob's value between its text, JSON and SuiteOptions forms. 32-bit
/// fields travel as u64 and are range-checked before they are narrowed.
using KnobValue = std::variant<u64, double, bool, std::string>;

/// The SuiteOptions field a knob reads and writes.
using KnobField = std::variant<u64*, u32*, double*, bool*, std::string*>;

/// Accepted values of a numeric knob. Integers: kAny is [0, type max],
/// kPositive is [1, type max], kDurationMs is [0, kMaxDurationMs]. Reals:
/// kPositive is (0, inf), kProbability is [0, 1]. Booleans and text knobs
/// ignore it.
enum class KnobRange : u8 { kAny, kPositive, kProbability, kDurationMs };

struct Knob {
  const char* name;  ///< job-object member, CSV column, stats-JSON key
  const char* flag;  ///< a boolean knob's flag is a switch that flips it
  const char* metavar = nullptr;  ///< --help value placeholder (valued)
  const char* help;
  KnobField (*field)(SuiteOptions&);
  KnobRange range = KnobRange::kAny;
  /// Text knobs: throws SimError on a malformed spec string; nullptr
  /// accepts any text. `expects` names the grammar in error messages.
  void (*grammar)(const std::string&) = nullptr;
  const char* expects = nullptr;
  /// Sweep axes name their trace-tag prefix; nullptr = not an axis. An
  /// axis with `tag_if_swept` joins the tag only when some such axis of
  /// the grid has more than one point.
  const char* tag = nullptr;
  bool tag_if_swept = false;
  bool csv = false;     ///< a config column of the sweep CSV
  bool config = false;  ///< a member of the stats-JSON "config" object
  /// printf format of a real's CSV cell and trace tag (default "%.17g").
  const char* cell_format = nullptr;
  /// The value the reports print when it is derived from the job.
  u64 (*reported)(const MatrixJob&) = nullptr;

  bool axis() const { return tag != nullptr; }
};

/// Every knob, in report-column and sweep-axis order.
std::span<const Knob> knobs();

const Knob* knob_named(const std::string& name);
const Knob* knob_for_flag(const std::string& flag);

KnobValue knob_get(const Knob& knob, const SuiteOptions& options);
void knob_set(const Knob& knob, SuiteOptions& options, const KnobValue& value);
KnobValue knob_default(const Knob& knob);
bool knob_is_switch(const Knob& knob);
/// What the reports print: the stored value, or the derived one.
KnobValue knob_reported(const Knob& knob, const MatrixJob& job);

/// Parse the text form of a valued knob; nullopt when it is out of range or
/// malformed. The whole string must parse.
std::optional<KnobValue> knob_parse(const Knob& knob, const std::string& text);
/// Decode a job-object member; nullopt on a wrong type or range.
std::optional<KnobValue> knob_from_json(const Knob& knob,
                                        const trace::JsonValue& json);
/// What a valid value looks like, for error messages.
std::string knob_expects(const Knob& knob);

/// Lossless text: knob_parse(knob_text(v)) == v.
std::string knob_text(const KnobValue& value);
/// The CSV cell and trace-tag text (a real uses the knob's cell format).
std::string knob_cell(const Knob& knob, const KnobValue& value);
void knob_json(trace::JsonWriter& w, const KnobValue& value);

/// Lossless identity of a job's knobs: a JSON object of every knob off its
/// default, in table order. Equal identities mean equal knob settings.
std::string knob_identity(const SuiteOptions& options);

}  // namespace mlp::sim
