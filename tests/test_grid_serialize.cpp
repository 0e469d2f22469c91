#include "grid/serialize.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.h"
#include "common/rng.h"

namespace fdeta::grid {
namespace {

TEST(Serialize, RoundTripPreservesStructure) {
  Rng rng(1);
  const auto original = Topology::random_radial(40, 4, rng, 0.02);

  std::stringstream buffer;
  save_topology(original, buffer);
  const auto loaded = load_topology(buffer);

  ASSERT_EQ(loaded.node_count(), original.node_count());
  ASSERT_EQ(loaded.consumer_count(), original.consumer_count());
  for (std::size_t id = 0; id < original.node_count(); ++id) {
    const Node& a = original.node(static_cast<NodeId>(id));
    const Node& b = loaded.node(static_cast<NodeId>(id));
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_EQ(a.consumer_id, b.consumer_id);
    EXPECT_DOUBLE_EQ(a.loss_fraction, b.loss_fraction);
    EXPECT_EQ(a.has_balance_meter, b.has_balance_meter);
  }
}

TEST(Serialize, RoundTripPreservesDemandsAndChecks) {
  Rng rng(2);
  const auto original = Topology::random_radial(25, 3, rng, 0.05);
  std::stringstream buffer;
  save_topology(original, buffer);
  const auto loaded = load_topology(buffer);

  std::vector<Kw> demand(25);
  for (std::size_t i = 0; i < 25; ++i) demand[i] = 0.3 + 0.1 * i;
  const auto a = original.node_demands(demand);
  const auto b = loaded.node_demands(demand);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(Serialize, SingleFeederFormatIsReadable) {
  const auto t = Topology::single_feeder(2, 0.05);
  std::stringstream buffer;
  save_topology(t, buffer);
  const std::string text = buffer.str();
  EXPECT_NE(text.find("internal 0 - 1"), std::string::npos);
  EXPECT_NE(text.find("consumer 1 0 1000"), std::string::npos);
  EXPECT_NE(text.find("loss 3 0 0.05"), std::string::npos);
}

TEST(Serialize, RejectsMalformedInput) {
  {
    std::stringstream in("internal 0 - 1\nbogus 1 0 5\n");
    EXPECT_THROW(load_topology(in), DataError);
  }
  {
    std::stringstream in("consumer 1 0 1000\n");  // no root
    EXPECT_THROW(load_topology(in), DataError);
  }
  {
    std::stringstream in("internal 0 - 1\nconsumer 5 0 1000\n");  // id gap
    EXPECT_THROW(load_topology(in), DataError);
  }
  {
    std::stringstream in("internal 0 - 1\ninternal 0 - 1\n");  // two roots
    EXPECT_THROW(load_topology(in), DataError);
  }
  // Structural errors and out-of-range fields: each a DataError, never a
  // Topology precondition failure or a silently narrowed value.
  for (const char* text : {
           // A parent out of range, and one that is a consumer.
           "internal 0 - 1\nconsumer 1 7 1000\n",
           "internal 0 - 1\nconsumer 1 0 1000\nloss 2 1 0.1\n",
           // A negative loss fraction.
           "internal 0 - 1\nloss 1 0 -0.5\n",
           // Fields that a bare narrowing would wrap: parent 2^32 to the
           // root, consumer id -1 to 2^32 - 1 and 2^32 + 5 to 5.
           "internal 0 - 1\ninternal 1 4294967296 1\n",
           "internal 0 - 1\nconsumer 1 0 -1\n",
           "internal 0 - 1\nconsumer 1 0 4294967301\n",
           // A metered flag that is neither 0 nor 1.
           "internal 0 - 1\ninternal 1 0 7\n",
       }) {
    std::stringstream in(text);
    try {
      load_topology(in);
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find("line"), std::string::npos)
          << e.what();
    }
  }
}

// ROADMAP item 6's seed for topology files: every byte of a saved radial
// feeder flipped (all bits, and one seeded bit) and every prefix of it must
// load cleanly or fail with DataError - no other exception, no crash.
TEST(Serialize, MutatedFilesFailWithDataErrorOrParse) {
  Rng rng(2016);
  std::stringstream saved;
  save_topology(Topology::random_radial(12, 3, rng, 0.02), saved);
  const std::string text = saved.str();
  const auto load_or_reject = [](const std::string& bytes) {
    std::stringstream in(bytes);
    try {
      load_topology(in);
    } catch (const DataError&) {
    }
  };
  for (std::size_t at = 0; at < text.size(); ++at) {
    for (const unsigned mask : {0xFFu, 1u << rng.below(8)}) {
      std::string flipped = text;
      flipped[at] = static_cast<char>(flipped[at] ^ mask);
      load_or_reject(flipped);
    }
    load_or_reject(text.substr(0, at));
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace fdeta::grid
