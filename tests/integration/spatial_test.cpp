// Structured-population extension: graph-restricted play and imitation.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/engine.hpp"
#include "core/parallel_engine.hpp"
#include "pop/stats.hpp"

namespace egt::core {
namespace {

SimConfig ring_config() {
  SimConfig cfg;
  cfg.ssets = 24;
  cfg.memory = 1;
  cfg.generations = 80;
  cfg.pc_rate = 0.5;
  cfg.mutation_rate = 0.1;
  cfg.seed = 515;
  cfg.fitness_mode = FitnessMode::Analytic;
  cfg.interaction.kind = InteractionSpec::Kind::Ring;
  cfg.interaction.ring_k = 2;
  return cfg;
}

TEST(Spatial, RingConfigValidates) {
  EXPECT_NO_THROW(ring_config().validate());
  auto bad = ring_config();
  bad.interaction.ring_k = 12;  // 2k == ssets
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(Spatial, LatticeConfigValidates) {
  auto cfg = ring_config();
  cfg.interaction.kind = InteractionSpec::Kind::Lattice2D;
  cfg.interaction.lattice_width = 6;  // 6 x 4
  EXPECT_NO_THROW(cfg.validate());
  cfg.interaction.lattice_width = 5;  // does not divide 24... 24/5 no
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.interaction.lattice_width = 12;  // height 2 < 3
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Spatial, MoranRuleIsRejectedOnStructuredPopulations) {
  auto cfg = ring_config();
  cfg.update_rule = pop::UpdateRule::Moran;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Spatial, LocalMutationKernelMatchesAcrossEngines) {
  // Bit-flip mutants come from the target's *current* strategy: both
  // engines must consult identical replicas at identical times.
  auto cfg = ring_config();
  cfg.space = pop::StrategySpace::Pure;
  cfg.mutation_kernel = pop::MutationKernel::PureBitFlip;
  cfg.mutation_bits = 2;
  cfg.mutation_rate = 0.5;
  Engine serial(cfg);
  serial.run_all();
  for (auto pattern :
       {CommPattern::PaperBcast, CommPattern::ReplicatedNature}) {
    cfg.comm_pattern = pattern;
    const auto par = run_parallel(cfg, 6);
    ASSERT_EQ(par.population.table_hash(), serial.population().table_hash());
  }
}

TEST(Spatial, ImitationOnlyCrossesEdges) {
  auto cfg = ring_config();
  cfg.mutation_rate = 0.0;
  cfg.pc_rate = 1.0;
  Engine engine(cfg);
  const auto* graph = engine.interaction_graph();
  ASSERT_NE(graph, nullptr);
  for (int g = 0; g < 100; ++g) {
    engine.step();
    const auto& rec = engine.last_record();
    ASSERT_TRUE(rec.pc.has_value());
    ASSERT_TRUE(graph->are_neighbors(rec.pc->teacher, rec.pc->learner))
        << rec.pc->teacher << " -> " << rec.pc->learner;
  }
}

TEST(Spatial, FitnessOnlyCountsNeighbours) {
  // On a ring with k=1, changing a strategy two hops away must not change
  // an SSet's fitness.
  auto cfg = ring_config();
  cfg.interaction.ring_k = 1;
  cfg.fitness_scale = FitnessScale::Total;
  auto graph = make_shared_graph(cfg);
  auto pop = make_initial_population(cfg);
  BlockFitness fit(cfg, 0, cfg.ssets, graph);
  fit.initialize(pop);
  const double f0_before = fit.fitness(0);

  // SSet 5 is not a neighbour of SSet 0 on the k=1 ring.
  pop.set_strategy(5, pop.strategy(6));
  fit.strategy_changed(5, pop, 1);
  EXPECT_DOUBLE_EQ(fit.fitness(0), f0_before);
  // ... but neighbours 4 and 6 may well have moved; at least their rows
  // were re-evaluated (pair counter grew).
  EXPECT_GT(fit.pairs_evaluated(), 0u);
}

TEST(Spatial, PerRoundAverageFitnessStaysInPayoffRange) {
  auto cfg = ring_config();
  Engine engine(cfg);
  engine.run(40);
  for (pop::SSetId i = 0; i < cfg.ssets; ++i) {
    ASSERT_GE(engine.population().fitness(i), 0.0);
    ASSERT_LE(engine.population().fitness(i), 4.0);
  }
}

TEST(Spatial, SerialParallelEquivalenceOnRing) {
  const auto cfg = ring_config();
  Engine serial(cfg);
  serial.run_all();
  for (int nranks : {2, 3, 8}) {
    const auto par = run_parallel(cfg, nranks);
    ASSERT_EQ(par.population.table_hash(), serial.population().table_hash())
        << nranks;
    for (pop::SSetId i = 0; i < cfg.ssets; ++i) {
      ASSERT_DOUBLE_EQ(par.population.fitness(i),
                       serial.population().fitness(i));
    }
  }
}

TEST(Spatial, SerialParallelEquivalenceOnLattice) {
  auto cfg = ring_config();
  cfg.interaction.kind = InteractionSpec::Kind::Lattice2D;
  cfg.interaction.lattice_width = 6;
  cfg.interaction.moore = true;
  Engine serial(cfg);
  serial.run_all();
  const auto par = run_parallel(cfg, 5);
  EXPECT_EQ(par.population.table_hash(), serial.population().table_hash());
}

TEST(Spatial, CompleteKindMatchesUnstructuredEngineExactly) {
  // InteractionSpec::Complete must leave trajectories identical to the
  // original unstructured configuration (the graph is implicit).
  auto cfg = ring_config();
  cfg.interaction = InteractionSpec{};
  Engine structured(cfg);
  structured.run_all();
  SimConfig plain = cfg;
  Engine original(plain);
  original.run_all();
  EXPECT_EQ(structured.population().table_hash(),
            original.population().table_hash());
}

TEST(Spatial, AgentThreadsNowComposeWithStructuredPopulations) {
  // The thread pool routes graph neighbours through the pool with an
  // exact row sum, so structured populations must validate and stay
  // bit-identical.
  auto cfg = ring_config();
  EXPECT_NO_THROW([&] {
    auto c = cfg;
    c.threads = 2;
    c.validate();
  }());
  Engine serial(cfg);
  serial.run_all();
  for (unsigned threads : {1u, 2u, 4u}) {
    auto threaded_cfg = cfg;
    threaded_cfg.threads = threads;
    Engine threaded(threaded_cfg);
    threaded.run_all();
    ASSERT_EQ(threaded.population().table_hash(),
              serial.population().table_hash())
        << "threads=" << threads;
    for (pop::SSetId i = 0; i < cfg.ssets; ++i) {
      ASSERT_DOUBLE_EQ(threaded.population().fitness(i),
                       serial.population().fitness(i));
    }
  }
  // And composed with the rank tier on a lattice.
  auto lattice = ring_config();
  lattice.interaction.kind = InteractionSpec::Kind::Lattice2D;
  lattice.interaction.lattice_width = 6;
  Engine lattice_serial(lattice);
  lattice_serial.run_all();
  lattice.threads = 2;
  const auto par = run_parallel(lattice, 4);
  EXPECT_EQ(par.population.table_hash(),
            lattice_serial.population().table_hash());
}

TEST(Spatial, SsetThreadsBitIdenticalOnRing) {
  auto cfg = ring_config();
  Engine serial(cfg);
  serial.run_all();
  cfg.threads = 3;
  Engine threaded(cfg);
  threaded.run_all();
  EXPECT_EQ(threaded.population().table_hash(),
            serial.population().table_hash());
}

TEST(Spatial, StructuredRunsDoLessFitnessWorkPerEvent) {
  // Degree-4 ring vs complete: each strategy change refreshes 2*degree
  // pairs instead of 2*(ssets-1).
  auto ring = ring_config();
  ring.generations = 60;
  Engine ring_engine(ring);
  ring_engine.run_all();
  auto complete = ring_config();
  complete.generations = 60;
  complete.interaction = InteractionSpec{};
  Engine complete_engine(complete);
  complete_engine.run_all();
  EXPECT_LT(ring_engine.pairs_evaluated(), complete_engine.pairs_evaluated());
}

}  // namespace
}  // namespace egt::core
