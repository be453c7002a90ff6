#include "codegen/code_size.h"

#include <gtest/gtest.h>

#include "graphs/fir.h"
#include "sched/loop_compaction.h"
#include "sched/sas.h"
#include "sdf/analysis.h"
#include "test_util.h"

namespace sdf {
namespace {

TEST(CodeSize, InlineCountsAppearancesAndLoops) {
  const Graph g = testing::fig2_graph();
  const CodeSizeModel model = CodeSizeModel::uniform(g, 10);
  // (3A)(6B)(2C): three leaves with residual counts -> 3 blocks + 3 loops.
  const Schedule flat = parse_schedule(g, "(3A)(6B)(2C)");
  EXPECT_EQ(inline_code_size(flat, model), 30 + 3 * 2);
  // (3 (A)(2B))(2C): 3 blocks, loops: outer 3x, inner leaf 2B, leaf 2C.
  const Schedule nested = parse_schedule(g, "(3 (A)(2B))(2C)");
  EXPECT_EQ(inline_code_size(nested, model), 30 + 3 * 2);
}

TEST(CodeSize, InlineGrowsWithAppearances) {
  const Graph g = testing::fig2_graph();
  const CodeSizeModel model = CodeSizeModel::uniform(g, 10);
  const Schedule sas = parse_schedule(g, "(3A)(6B)(2C)");
  const Schedule interleaved = parse_schedule(g, "A 2B A B C A 3B C");
  EXPECT_LT(inline_code_size(sas, model),
            inline_code_size(interleaved, model));
}

TEST(CodeSize, SubroutineSharesTypeBlocks) {
  const Graph g = testing::fig2_graph();
  CodeSizeModel model = CodeSizeModel::uniform(g, 10);
  model.type_of = {0, 0, 0};  // everything one type
  const Schedule s = parse_schedule(g, "(3A)(6B)(2C)");
  // One shared block + 3 call sites + 3 leaf loops.
  EXPECT_EQ(subroutine_code_size(s, model), 10 + 3 * 2 + 3 * 2);
}

TEST(CodeSize, SubroutineUsesLargestBlockPerType) {
  const Graph g = testing::fig2_graph();
  CodeSizeModel model;
  model.actor_size = {10, 30, 20};
  model.type_of = {7, 7, 9};
  const Schedule s = parse_schedule(g, "A B C");
  // type 7 -> max(10,30)=30, type 9 -> 20; 3 calls, no loops.
  EXPECT_EQ(subroutine_code_size(s, model), 50 + 3 * 2);
}

TEST(CodeSize, SubroutineWinsWhenInstancesShareTypes) {
  // The Sec. 11.2 trade-off on the fine-grained FIR: inline grows with
  // taps, subroutine code stays near-constant.
  const FirGraph small = fir_fine_grained(4);
  const FirGraph big = fir_fine_grained(16);
  auto sizes = [](const FirGraph& fir) {
    const Repetitions q = repetitions_vector(fir.graph);
    const Schedule s = flat_sas(fir.graph, q);
    CodeSizeModel model = CodeSizeModel::uniform(fir.graph, 20);
    model.type_of = fir.type_of;
    return std::pair(inline_code_size(s, model),
                     subroutine_code_size(s, model));
  };
  const auto [inline_small, sub_small] = sizes(small);
  const auto [inline_big, sub_big] = sizes(big);
  EXPECT_GT(inline_big, inline_small * 2);
  EXPECT_LT(sub_big - sub_small, inline_big - inline_small);
  EXPECT_LT(sub_big, inline_big);
}

TEST(CodeSize, CompactionReducesInlineSize) {
  // Loop compaction's purpose: fewer appearances = less inline code.
  const Graph g = testing::fig2_graph();
  const CodeSizeModel model = CodeSizeModel::uniform(g, 10);
  const Schedule verbose = parse_schedule(g, "A A A 2B 2B 2B C C");
  const CompactionResult tight = compact_firing_sequence(verbose.flatten());
  EXPECT_LT(inline_code_size(tight.schedule, model),
            inline_code_size(verbose, model));
}

TEST(CodeSize, ThrowsOnActorOutsideModel) {
  CodeSizeModel model;
  model.actor_size = {10};
  EXPECT_THROW((void)inline_code_size(Schedule::leaf(3, 1), model),
               std::invalid_argument);
}

TEST(CodeSize, UniformFactory) {
  const Graph g = testing::fig2_graph();
  const CodeSizeModel model = CodeSizeModel::uniform(g, 7);
  EXPECT_EQ(model.actor_size, (std::vector<std::int64_t>{7, 7, 7}));
  EXPECT_TRUE(model.type_of.empty());
}

}  // namespace
}  // namespace sdf
