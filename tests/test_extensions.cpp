// Extension features from paper §6: client selection strategies and update
// quantization.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/selection.hpp"
#include "util/rng.hpp"

namespace photon {
namespace {

std::map<int, ClientStats> stats_with_losses(
    const std::vector<std::pair<int, double>>& losses) {
  std::map<int, ClientStats> stats;
  for (const auto& [client, loss] : losses) {
    stats[client].last_loss = loss;
  }
  return stats;
}

TEST(UniformSelection, DistinctAndDeterministic) {
  UniformSelection a(5), b(5);
  const std::vector<int> avail{0, 1, 2, 3, 4, 5, 6, 7};
  const auto s1 = a.select(avail, {}, 3, 9);
  const auto s2 = b.select(avail, {}, 3, 9);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(std::set<int>(s1.begin(), s1.end()).size(), 3u);
}

TEST(PowerOfChoice, PrefersHighLossClients) {
  PowerOfChoiceSelection sel(7, /*candidate_factor=*/4);
  const std::vector<int> avail{0, 1, 2, 3, 4, 5, 6, 7};
  // Client 3 and 6 have by far the worst loss; with candidate factor 4 and
  // k=2 the candidate set is everyone, so they must be chosen.
  const auto stats = stats_with_losses(
      {{0, 1.0}, {1, 1.1}, {2, 1.2}, {3, 9.0}, {4, 1.0}, {5, 1.3}, {6, 8.0},
       {7, 1.1}});
  const auto s = sel.select(avail, stats, 2, 0);
  EXPECT_EQ(s, (std::vector<int>{3, 6}));
}

TEST(PowerOfChoice, UnseenClientsExploredFirst) {
  PowerOfChoiceSelection sel(7, 4);
  const std::vector<int> avail{0, 1, 2, 3};
  const auto stats = stats_with_losses({{0, 2.0}, {1, 2.0}});  // 2,3 unseen
  const auto s = sel.select(avail, stats, 2, 1);
  EXPECT_EQ(s, (std::vector<int>{2, 3}));
}

TEST(LossProportional, BiasTowardHighLoss) {
  LossProportionalSelection sel(11);
  const std::vector<int> avail{0, 1};
  const auto stats = stats_with_losses({{0, 0.1}, {1, 10.0}});
  int high_picked = 0;
  for (std::uint32_t r = 0; r < 500; ++r) {
    const auto s = sel.select(avail, stats, 1, r);
    if (s[0] == 1) ++high_picked;
  }
  EXPECT_GT(high_picked, 400);  // ~99% expected; allow slack
}

TEST(SelectionFactory, BuildsAllAndRejectsUnknown) {
  EXPECT_EQ(make_selection_strategy("uniform", 1)->name(), "uniform");
  EXPECT_EQ(make_selection_strategy("power-of-choice", 1)->name(),
            "power-of-choice");
  EXPECT_EQ(make_selection_strategy("loss-proportional", 1)->name(),
            "loss-proportional");
  EXPECT_THROW(make_selection_strategy("oracle", 1), std::invalid_argument);
}

TEST(SelectionStrategies, KLargerThanPoolReturnsEveryone) {
  for (const char* name : {"uniform", "power-of-choice", "loss-proportional"}) {
    auto sel = make_selection_strategy(name, 3);
    const auto s = sel->select({4, 2, 9}, {}, 10, 0);
    EXPECT_EQ(s, (std::vector<int>{2, 4, 9})) << name;
  }
}

}  // namespace
}  // namespace photon
