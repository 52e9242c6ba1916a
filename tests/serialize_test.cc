// Tests for DAG text (de)serialization (src/dag/serialize.h).
#include "src/dag/serialize.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/dag/builders.h"

namespace pjsched::dag {
namespace {

TEST(SerializeTest, RoundTripDiamond) {
  Dag d;
  d.add_node(2);
  d.add_node(3);
  d.add_node(5);
  d.add_node(1);
  d.add_edge(0, 1);
  d.add_edge(0, 2);
  d.add_edge(1, 3);
  d.add_edge(2, 3);
  d.seal();

  const Dag back = from_text(to_text(d));
  EXPECT_EQ(back.node_count(), d.node_count());
  EXPECT_EQ(back.edge_count(), d.edge_count());
  EXPECT_EQ(back.total_work(), d.total_work());
  EXPECT_EQ(back.critical_path(), d.critical_path());
  for (NodeId v = 0; v < d.node_count(); ++v)
    EXPECT_EQ(back.work_of(v), d.work_of(v));
}

TEST(SerializeTest, RoundTripBuilders) {
  for (const Dag& d :
       {serial_chain(6, 3), parallel_for_dag(5, 7), star(8),
        divide_and_conquer(2, 4)}) {
    const Dag back = from_text(to_text(d));
    EXPECT_EQ(back.total_work(), d.total_work());
    EXPECT_EQ(back.critical_path(), d.critical_path());
    EXPECT_EQ(back.edge_count(), d.edge_count());
  }
}

TEST(SerializeTest, TextFormatIsStable) {
  const Dag d = serial_chain(2, 9);
  EXPECT_EQ(to_text(d),
            "dag 2 1\n"
            "node 0 9\n"
            "node 1 9\n"
            "edge 0 1\n"
            "end\n");
}

TEST(SerializeTest, CommentsAndWhitespaceTolerated) {
  const std::string text =
      "# a tiny dag\n"
      "dag 2 1   # header\n"
      "  node 0 4\n"
      "node 1 6\n"
      "# the only edge\n"
      "edge 0 1\n"
      "end\n";
  const Dag d = from_text(text);
  EXPECT_EQ(d.node_count(), 2u);
  EXPECT_EQ(d.total_work(), 10u);
}

TEST(SerializeTest, UnsealedWriteRejected) {
  Dag d;
  d.add_node(1);
  std::ostringstream oss;
  EXPECT_THROW(write_text(oss, d), std::invalid_argument);
}

TEST(SerializeTest, MalformedInputsRejected) {
  EXPECT_THROW(from_text(""), std::invalid_argument);
  EXPECT_THROW(from_text("dog 1 0"), std::invalid_argument);
  EXPECT_THROW(from_text("dag x 0"), std::invalid_argument);
  EXPECT_THROW(from_text("dag 1 0\nnode 0 5\n"),
               std::invalid_argument);  // no end
  EXPECT_THROW(from_text("dag 1 0\nnode 1 5\nend\n"),
               std::invalid_argument);  // wrong id order
  EXPECT_THROW(from_text("dag 2 1\nnode 0 1\nnode 1 1\nedge 0 5\nend\n"),
               std::invalid_argument);  // edge out of range
  EXPECT_THROW(from_text("dag 1 0\nnode 0 0\nend\n"),
               std::invalid_argument);  // zero work
  EXPECT_THROW(
      from_text("dag 2 2\nnode 0 1\nnode 1 1\nedge 0 1\nedge 0 1\nend\n"),
      std::invalid_argument);  // duplicate edge
}

TEST(SerializeTest, SignedOrOutOfRangeNumbersRejected) {
  // Counts, ids and work are unsigned decimals: no sign (std::stoull
  // would wrap "-5" to 2^64 - 5), nothing past 2^64 - 1.
  for (const char* text : {
           "dag 1 0\nnode 0 -5\nend\n",
           "dag 1 0\nnode 0 +5\nend\n",
           "dag 1 0\nnode -0 5\nend\n",
           "dag -1 0\nend\n",
           "dag 2 1\nnode 0 1\nnode 1 1\nedge -0 1\nend\n",
           "dag 1 0\nnode 0 18446744073709551616\nend\n",
       })
    EXPECT_THROW(from_text(text), std::invalid_argument) << text;
}

TEST(SerializeTest, CycleInTextRejectedAtSeal) {
  EXPECT_THROW(
      from_text("dag 2 2\nnode 0 1\nnode 1 1\nedge 0 1\nedge 1 0\nend\n"),
      std::invalid_argument);
}

}  // namespace
}  // namespace pjsched::dag
