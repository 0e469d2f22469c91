#include "grid/serialize.h"

#include <istream>
#include <limits>
#include <ostream>

#include "common/csv.h"
#include "common/error.h"

namespace fdeta::grid {

void save_topology(const Topology& topology, std::ostream& out) {
  for (std::size_t id = 0; id < topology.node_count(); ++id) {
    const Node& n = topology.node(static_cast<NodeId>(id));
    switch (n.kind) {
      case NodeKind::kInternal:
        out << "internal " << id << ' '
            << (n.parent == kNoNode ? std::string("-")
                                    : std::to_string(n.parent))
            << ' ' << (n.has_balance_meter ? 1 : 0) << '\n';
        break;
      case NodeKind::kConsumer:
        out << "consumer " << id << ' ' << n.parent << ' ' << n.consumer_id
            << '\n';
        break;
      case NodeKind::kLoss:
        out << "loss " << id << ' ' << n.parent << ' ' << n.loss_fraction
            << '\n';
        break;
    }
  }
}

Topology load_topology(std::istream& in) {
  Topology topology;
  bool root_seen = false;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    // Every malformed line is a DataError naming its line: each value is
    // range-checked here, before it is narrowed or handed to Topology.
    const auto malformed = [&](const std::string& what) {
      return DataError("load_topology: " + what + " at line " +
                       std::to_string(line_no));
    };
    const auto fields = split_csv_line(line, ' ');
    if (fields.size() != 4) throw malformed("expected 4 fields");
    const std::string& kind = fields[0];
    const long id = parse_long(fields[1], "node id");
    if (kind != "internal" && kind != "consumer" && kind != "loss") {
      throw malformed("unknown node kind '" + kind + "'");
    }
    long metered = 0;
    if (kind == "internal") {
      metered = parse_long(fields[3], "metered");
      if (metered != 0 && metered != 1) {
        throw malformed("metered flag must be 0 or 1");
      }
      if (fields[2] == "-") {
        // The root: Topology() already created node 0.
        if (root_seen || id != 0) {
          throw DataError("load_topology: root must be node 0, once");
        }
        root_seen = true;
        continue;
      }
    }
    // A parent is an internal node of an earlier line.
    const long parent = parse_long(fields[2], "parent");
    if (parent < 0 ||
        static_cast<std::size_t>(parent) >= topology.node_count()) {
      throw malformed("parent out of range");
    }
    const auto parent_id = static_cast<NodeId>(parent);
    if (topology.node(parent_id).kind != NodeKind::kInternal) {
      throw malformed("parent must be an internal node");
    }
    NodeId got = kNoNode;
    if (kind == "internal") {
      got = topology.add_internal(parent_id, metered == 1);
    } else if (kind == "consumer") {
      const long consumer_id = parse_long(fields[3], "consumer id");
      if (consumer_id < 0 ||
          consumer_id > std::numeric_limits<meter::ConsumerId>::max()) {
        throw malformed("consumer id out of range");
      }
      got = topology.add_consumer(parent_id,
                                  static_cast<meter::ConsumerId>(consumer_id));
    } else {
      const double fraction = parse_double(fields[3], "loss fraction");
      if (!(fraction >= 0.0)) throw malformed("negative loss fraction");
      got = topology.add_loss(parent_id, fraction);
    }
    if (got != id) throw malformed("non-sequential node id");
  }
  if (!root_seen) throw DataError("load_topology: missing root line");
  return topology;
}

}  // namespace fdeta::grid
