#pragma once
// Knob flags and the configuration grid shared by the command-line tools.
// Every knob flag comes from the knob table (sim/knobs.hpp): mlpsim and
// mlpclient take one value per knob (consume_knob), and mlpsweep's
// SweepGrid takes a comma-separated list for each sweep axis and one value
// for every other knob. The grid expands its cross product in ONE fixed
// axis order (arch, bench, then the table's axes in table order), so every
// driver emits rows in the same deterministic grid order.

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "argparse.hpp"
#include "sim/knobs.hpp"
#include "sim/runner.hpp"

namespace mlp::tools {

inline std::vector<arch::ArchKind> parse_archs(const std::string& flag,
                                               const std::string& text) {
  if (text == "all") return arch::all_arch_kinds();
  std::vector<arch::ArchKind> kinds;
  for (const std::string& name : split_list(flag, text)) {
    arch::ArchKind kind;
    if (!arch::arch_from_name(name, &kind)) {
      flag_error(flag, name, "a known architecture");
    }
    kinds.push_back(kind);
  }
  return kinds;
}

inline std::vector<std::string> parse_benches(const std::string& flag,
                                              const std::string& text) {
  if (text == "all") return workloads::bmla_names();
  std::vector<std::string> benches = split_list(flag, text);
  const std::vector<std::string>& known = workloads::bmla_names();
  for (const std::string& bench : benches) {
    if (std::find(known.begin(), known.end(), bench) == known.end()) {
      flag_error(flag, bench, "a known benchmark");
    }
  }
  return benches;
}

/// One value of a valued knob's flag. A bad value exits 2 at parse time,
/// naming the flag, instead of failing every grid point. Spec strings get
/// their grammar checked here; checks that need the point's geometry stay
/// per-point SimErrors.
inline sim::KnobValue parse_knob(const sim::Knob& knob, const std::string& flag,
                                 const std::string& text) {
  const std::optional<sim::KnobValue> value = sim::knob_parse(knob, text);
  if (!value) flag_error(flag, text, sim::knob_expects(knob).c_str());
  return *value;
}

/// The value the cursor's knob flag sets: a switch flips the knob's
/// default, a valued knob parses its argument.
inline sim::KnobValue knob_flag_value(ArgCursor& args, const sim::Knob& knob) {
  if (sim::knob_is_switch(knob)) {
    return !std::get<bool>(sim::knob_default(knob));
  }
  const std::string flag = args.flag();
  return parse_knob(knob, flag, args.value());
}

/// Consume the cursor's flag into `options` when it names a knob; returns
/// false (cursor untouched) when it does not.
inline bool consume_knob(ArgCursor& args, sim::SuiteOptions& options) {
  const sim::Knob* knob = sim::knob_for_flag(args.flag());
  if (knob == nullptr) return false;
  sim::knob_set(*knob, options, knob_flag_value(args, *knob));
  return true;
}

/// The --help entry for a knob flag, wrapped to 79 columns; `list` shows
/// an axis taking a list.
inline std::string knob_help_line(const sim::Knob& knob, bool list) {
  constexpr std::size_t kIndent = 26;
  constexpr std::size_t kWidth = 79;
  std::string out = std::string("  ") + knob.flag;
  std::string text = knob.help;
  if (!sim::knob_is_switch(knob)) {
    out += ' ';
    out += list ? "LIST" : knob.metavar;
    text += " (default " + sim::knob_cell(knob, sim::knob_default(knob)) + ")";
  }
  out.resize(std::max(out.size() + 2, kIndent), ' ');
  std::size_t column = out.size();
  for (std::size_t start = 0; start < text.size();) {
    const std::size_t end = std::min(text.find(' ', start), text.size());
    const std::size_t len = end - start;
    if (column > kIndent && column + 1 + len > kWidth) {
      out += '\n' + std::string(kIndent, ' ');
      column = kIndent;
    } else if (column > kIndent) {
      out += ' ';
      ++column;
    }
    out.append(text, start, len);
    column += len;
    start = end + 1;
  }
  return out + "\n";
}

/// The axis coordinates of a job, "name=value" each, for failure reports.
inline std::string point_label(const sim::SuiteOptions& options) {
  std::string label;
  for (const sim::Knob& knob : sim::knobs()) {
    if (!knob.axis()) continue;
    label += ' ';
    label += knob.name;
    label += '=';
    label += sim::knob_cell(knob, sim::knob_get(knob, options));
  }
  return label;
}

struct SweepGrid {
  /// One sweep axis: a table knob and its points.
  struct Axis {
    const sim::Knob* knob;
    std::vector<sim::KnobValue> points;
  };

  std::vector<arch::ArchKind> archs = {arch::ArchKind::kMillipede};
  std::vector<std::string> benches = workloads::bmla_names();
  /// The table's axes in table order, each one default point until set.
  std::vector<Axis> axes = default_axes();
  /// Every other knob, applied to every point.
  sim::SuiteOptions scalars;

  static std::vector<Axis> default_axes() {
    std::vector<Axis> out;
    for (const sim::Knob& knob : sim::knobs()) {
      if (knob.axis()) out.push_back({&knob, {sim::knob_default(knob)}});
    }
    return out;
  }

  /// Usage text for the flags consume() understands.
  static std::string help() {
    std::string out =
        "Grid axes (comma-separated lists; each defaults to one point):\n"
        "  --arch LIST|all         architectures (default millipede)\n"
        "  --bench LIST|all        benchmarks (default all)\n";
    for (const sim::Knob& knob : sim::knobs()) {
      if (knob.axis()) out += knob_help_line(knob, /*list=*/true);
    }
    out += "\nPoint scalars:\n";
    for (const sim::Knob& knob : sim::knobs()) {
      if (!knob.axis()) out += knob_help_line(knob, /*list=*/false);
    }
    return out;
  }

  /// Try to consume the current ArgCursor flag as a grid/scalar flag;
  /// returns false (cursor untouched) when the flag is not one of ours.
  bool consume(ArgCursor& args) {
    const std::string flag = args.flag();
    if (args.is("--arch")) {
      archs = parse_archs(flag, args.value());
      return true;
    }
    if (args.is("--bench")) {
      benches = parse_benches(flag, args.value());
      return true;
    }
    const sim::Knob* knob = sim::knob_for_flag(flag);
    if (knob == nullptr) return false;
    if (!knob->axis()) {
      sim::knob_set(*knob, scalars, knob_flag_value(args, *knob));
      return true;
    }
    std::vector<sim::KnobValue> points;
    for (const std::string& item : split_list(flag, args.value())) {
      points.push_back(parse_knob(*knob, flag, item));
    }
    std::find_if(axes.begin(), axes.end(), [&](const Axis& axis) {
      return axis.knob == knob;
    })->points = std::move(points);
    return true;
  }

  /// Expand the cross product in the fixed axis order, the last axis
  /// fastest.
  std::vector<sim::MatrixJob> expand() const {
    // Tracing needs a unique per-point file stem: encode the grid
    // coordinates into the job tag. Axes marked tag_if_swept join it only
    // when one of them is swept, keeping single-point trace names stable.
    const bool traced = scalars.trace.enabled();
    bool tag_swept = false;
    for (const Axis& axis : axes) {
      tag_swept |= axis.knob->tag_if_swept && axis.points.size() > 1;
    }
    std::vector<sim::MatrixJob> matrix;
    for (const arch::ArchKind kind : archs) {
      for (const std::string& bench : benches) {
        std::vector<std::size_t> at(axes.size(), 0);
        do {
          sim::SuiteOptions options = scalars;
          std::string tag;
          for (std::size_t a = 0; a < axes.size(); ++a) {
            const sim::Knob& knob = *axes[a].knob;
            const sim::KnobValue& value = axes[a].points[at[a]];
            sim::knob_set(knob, options, value);
            if (!traced || (knob.tag_if_swept && !tag_swept)) continue;
            if (!tag.empty()) tag += '-';
            tag += knob.tag;
            tag += sim::knob_cell(knob, value);
          }
          // ':' and '=' are awkward in file stems.
          std::replace(tag.begin(), tag.end(), ':', '.');
          std::replace(tag.begin(), tag.end(), '=', '.');
          matrix.push_back({kind, bench, options, tag});
        } while (advance(at));
      }
    }
    return matrix;
  }

 private:
  /// Step the per-axis odometer; false once every point was visited.
  bool advance(std::vector<std::size_t>& at) const {
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++at[a] < axes[a].points.size()) return true;
      at[a] = 0;
    }
    return false;
  }
};

}  // namespace mlp::tools
