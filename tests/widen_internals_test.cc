// White-box tests of WIDEN's stateful-embedding machinery: the per-graph
// store, its export/import, and inductive warm-up behavior.

#include "core/widen_model.h"

#include "datasets/splits.h"
#include "datasets/synthetic.h"
#include "gtest/gtest.h"
#include "tensor/ops.h"

namespace widen::core {
namespace {

datasets::SyntheticGraphSpec Spec() {
  datasets::SyntheticGraphSpec spec;
  spec.name = "internals";
  spec.node_types = {{"doc", 120, true}, {"tag", 30, false}};
  spec.edge_types = {{"doc-tag", "doc", "tag", 3.0, 0.9}};
  spec.num_classes = 3;
  spec.feature_dim = 16;
  spec.seed = 13;
  return spec;
}

WidenConfig Config() {
  WidenConfig config;
  config.embedding_dim = 8;
  config.num_wide_neighbors = 4;
  config.num_deep_neighbors = 4;
  config.num_deep_walks = 2;
  config.max_epochs = 3;
  config.learning_rate = 1e-2f;
  config.seed = 21;
  return config;
}

TEST(WidenInternalsTest, CacheExportEmptyBeforeTraining) {
  auto graph = datasets::GenerateSyntheticGraph(Spec());
  ASSERT_TRUE(graph.ok());
  auto model = WidenModel::Create(&*graph, Config());
  ASSERT_TRUE(model.ok());
  tensor::Tensor reps, valid;
  EXPECT_FALSE((*model)->ExportTrainingCache(&reps, &valid));
}

TEST(WidenInternalsTest, CacheExportImportRoundTrip) {
  auto graph = datasets::GenerateSyntheticGraph(Spec());
  ASSERT_TRUE(graph.ok());
  auto split = datasets::MakeTransductiveSplit(*graph, 0.4, 0.1, 2);
  ASSERT_TRUE(split.ok());
  auto model = WidenModel::Create(&*graph, Config());
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE((*model)->Train(split->train).ok());

  tensor::Tensor reps, valid;
  ASSERT_TRUE((*model)->ExportTrainingCache(&reps, &valid));
  EXPECT_EQ(reps.rows(), graph->num_nodes());
  EXPECT_EQ(reps.cols(), Config().embedding_dim);
  // After training every node was refreshed at least once.
  for (int64_t v = 0; v < valid.rows(); ++v) {
    EXPECT_FLOAT_EQ(valid.at(v, 0), 1.0f) << "node " << v;
  }
  // Exported rows are the embeddings EmbedNodes reads back.
  tensor::Tensor embedded = (*model)->EmbedNodes(*graph, {0, 5, 10});
  for (int64_t j = 0; j < embedded.cols(); ++j) {
    EXPECT_FLOAT_EQ(embedded.at(1, j), reps.at(5, j));
  }

  // Import into a fresh model: same reads.
  auto other = WidenModel::Create(&*graph, Config());
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE((*other)->ImportTrainingCache(reps, valid).ok());
  tensor::Tensor embedded2 = (*other)->EmbedNodes(*graph, {0, 5, 10});
  for (int64_t j = 0; j < embedded2.cols(); ++j) {
    EXPECT_FLOAT_EQ(embedded2.at(1, j), reps.at(5, j));
  }
}

TEST(WidenInternalsTest, ImportRejectsWrongShapes) {
  auto graph = datasets::GenerateSyntheticGraph(Spec());
  ASSERT_TRUE(graph.ok());
  auto model = WidenModel::Create(&*graph, Config());
  ASSERT_TRUE(model.ok());
  tensor::Tensor bad_reps(tensor::Shape::Matrix(3, 8));
  tensor::Tensor valid(tensor::Shape::Matrix(graph->num_nodes(), 1));
  EXPECT_FALSE((*model)->ImportTrainingCache(bad_reps, valid).ok());
  tensor::Tensor reps(tensor::Shape::Matrix(graph->num_nodes(), 8));
  tensor::Tensor bad_valid(tensor::Shape::Matrix(2, 1));
  EXPECT_FALSE((*model)->ImportTrainingCache(reps, bad_valid).ok());
  tensor::Tensor wide_reps(tensor::Shape::Matrix(graph->num_nodes(), 9));
  EXPECT_FALSE((*model)->ImportTrainingCache(wide_reps, valid).ok());
  tensor::Tensor wide_valid(tensor::Shape::Matrix(graph->num_nodes(), 2));
  EXPECT_FALSE((*model)->ImportTrainingCache(reps, wide_valid).ok());
  EXPECT_FALSE((*model)->ImportTrainingCache(reps, tensor::Tensor()).ok());

  // The same checks guard RepTable itself, whatever the graph.
  EXPECT_FALSE(RepTable::FromTensors(wide_reps, valid, 8).ok());
  EXPECT_FALSE(RepTable::FromTensors(reps, wide_valid, 8).ok());
  EXPECT_FALSE(RepTable::FromTensors(tensor::Tensor(), valid, 8).ok());
  EXPECT_FALSE(
      RepTable::FromTensors(tensor::Tensor(tensor::Shape{8}),
                            valid, 8)
          .ok());
}

TEST(WidenInternalsTest, RepTableMissesInvalidRowsAndNodesPastN) {
  const int64_t n = 4, d = 3;
  tensor::Tensor reps(tensor::Shape::Matrix(n, d));
  for (int64_t i = 0; i < reps.size(); ++i) {
    reps.mutable_data()[i] = static_cast<float>(i);
  }
  tensor::Tensor valid(tensor::Shape::Matrix(n, 1));
  valid.set(1, 0, 1.0f);
  auto table = RepTable::FromTensors(reps, valid, d);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_nodes(), n);
  EXPECT_EQ(table->Lookup(1), reps.data() + d);  // adopted, not copied
  EXPECT_EQ(table->Lookup(0), nullptr);          // invalid row
  EXPECT_EQ(table->Lookup(n), nullptr);          // first delta-added id
  EXPECT_EQ(table->Lookup(n + 100), nullptr);
  EXPECT_EQ(table->Lookup(-1), nullptr);

  const float row[] = {7.0f, 8.0f, 9.0f};
  table->Store(2, row);
  ASSERT_NE(table->Lookup(2), nullptr);
  EXPECT_EQ(table->Lookup(2)[2], 9.0f);
  EXPECT_EQ(valid.at(2, 0), 1.0f);  // writes through to the checkpoint layout

  const RepTable empty;
  EXPECT_EQ(empty.num_nodes(), 0);
  EXPECT_EQ(empty.Lookup(0), nullptr);
  const RepTable zeroed(n, d);
  for (graph::NodeId v = 0; v <= n; ++v) EXPECT_EQ(zeroed.Lookup(v), nullptr);
}

TEST(WidenInternalsTest, InductiveGraphGetsItsOwnStore) {
  auto graph = datasets::GenerateSyntheticGraph(Spec());
  ASSERT_TRUE(graph.ok());
  auto inductive = datasets::MakeInductiveSplit(*graph, 0.2, 4);
  ASSERT_TRUE(inductive.ok());
  auto model = WidenModel::Create(&inductive->training.graph, Config());
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE((*model)->Train(inductive->train_labeled).ok());
  // Embedding against the FULL graph triggers warm-up for that graph and
  // must produce valid unit rows for nodes the model never saw.
  tensor::Tensor embedded =
      (*model)->EmbedNodes(*graph, inductive->heldout);
  ASSERT_EQ(embedded.rows(),
            static_cast<int64_t>(inductive->heldout.size()));
  for (int64_t i = 0; i < embedded.rows(); ++i) {
    double norm = 0.0;
    for (int64_t j = 0; j < embedded.cols(); ++j) {
      norm += static_cast<double>(embedded.at(i, j)) * embedded.at(i, j);
    }
    EXPECT_NEAR(norm, 1.0, 1e-3) << "row " << i;
  }
}

TEST(WidenInternalsTest, TrainTwiceContinuesNotRestarts) {
  auto graph = datasets::GenerateSyntheticGraph(Spec());
  ASSERT_TRUE(graph.ok());
  auto split = datasets::MakeTransductiveSplit(*graph, 0.4, 0.1, 2);
  ASSERT_TRUE(split.ok());
  auto model = WidenModel::Create(&*graph, Config());
  ASSERT_TRUE(model.ok());
  auto first = (*model)->Train(split->train);
  ASSERT_TRUE(first.ok());
  auto second = (*model)->Train(split->train);
  ASSERT_TRUE(second.ok());
  // Epoch numbering carries on (downsampling state persists across calls).
  EXPECT_EQ(second->epochs.front().epoch,
            first->epochs.back().epoch + 1);
}

TEST(WidenInternalsTest, NeighborSetSizesReflectSampling) {
  auto graph = datasets::GenerateSyntheticGraph(Spec());
  ASSERT_TRUE(graph.ok());
  auto split = datasets::MakeTransductiveSplit(*graph, 0.4, 0.1, 2);
  ASSERT_TRUE(split.ok());
  auto model = WidenModel::Create(&*graph, Config());
  ASSERT_TRUE(model.ok());
  // Unknown before training.
  EXPECT_EQ((*model)->NeighborSetSizes(split->train[0]).first, -1);
  ASSERT_TRUE((*model)->Train(split->train).ok());
  auto [wide, deep] = (*model)->NeighborSetSizes(split->train[0]);
  EXPECT_GE(wide, 0);
  EXPECT_LE(wide, Config().num_wide_neighbors);
  EXPECT_LE(deep, static_cast<double>(Config().num_deep_neighbors));
}

}  // namespace
}  // namespace widen::core
