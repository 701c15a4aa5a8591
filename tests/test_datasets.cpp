// Corpus tests: determinism, composition, paper filters.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "datasets/general_corpus.hpp"
#include "datasets/graph_corpus.hpp"
#include "datasets/named_corpus.hpp"

namespace mfla {
namespace {

TEST(GeneralCorpus, DeterministicAndSorted) {
  GeneralCorpusOptions opts;
  opts.count = 21;
  const auto a = build_general_corpus(opts);
  const auto b = build_general_corpus(opts);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GE(a.size(), 18u);  // a few may be dropped by the nnz filter
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].nnz(), b[i].nnz());
    if (i > 0) {
      EXPECT_LT(a[i - 1].name, a[i].name);
    }
  }
}

TEST(GeneralCorpus, RespectsPaperFilters) {
  GeneralCorpusOptions opts;
  opts.count = 35;
  const auto corpus = build_general_corpus(opts);
  std::set<std::string> families;
  for (const auto& t : corpus) {
    EXPECT_LE(t.nnz(), opts.max_nnz);       // paper: <= 20,000 non-zeros
    EXPECT_GE(t.n(), opts.min_n);
    EXPECT_LE(t.n(), opts.max_n);
    EXPECT_EQ(t.klass, "general");
    families.insert(t.category);
    // Symmetry of the stored matrix.
    const auto& m = t.matrix;
    for (std::size_t i = 0; i < std::min<std::size_t>(m.rows(), 20); ++i)
      for (std::size_t j = 0; j < std::min<std::size_t>(m.cols(), 20); ++j)
        EXPECT_DOUBLE_EQ(m.at(i, j), m.at(j, i));
  }
  EXPECT_GE(families.size(), 6u);  // all seven families represented-ish
}

TEST(GeneralCorpus, WideRangeFamilyHasExtremeEntries) {
  GeneralCorpusOptions opts;
  opts.count = 35;
  const auto corpus = build_general_corpus(opts);
  bool found_extreme = false;
  for (const auto& t : corpus) {
    if (t.category != "widerange") continue;
    double lo = 1e300, hi = 0;
    for (const double v : t.matrix.values()) {
      const double a = std::abs(v);
      if (a > 0) {
        lo = std::min(lo, a);
        hi = std::max(hi, a);
      }
    }
    if (hi / lo > 1e6) found_extreme = true;
  }
  EXPECT_TRUE(found_extreme);  // drives the paper's ∞σ tail at 8/16 bits
}

TEST(GraphCorpus, ClassCountsRespected) {
  GraphCorpusOptions opts;
  opts.counts = {8, 6, 7, 9};
  opts.max_n = 120;
  const auto all = build_graph_corpus(opts);
  std::size_t bio = 0, infra = 0, soc = 0, misc = 0;
  for (const auto& t : all) {
    if (t.klass == "biological") ++bio;
    if (t.klass == "infrastructure") ++infra;
    if (t.klass == "social") ++soc;
    if (t.klass == "miscellaneous") ++misc;
  }
  EXPECT_LE(bio, 8u);
  EXPECT_GE(bio, 7u);  // at most one dropped by the min-size filter
  EXPECT_EQ(infra, 6u);
  EXPECT_EQ(soc, 7u);
  EXPECT_GE(misc, 8u);
}

TEST(GraphCorpus, SingleClassFilter) {
  GraphCorpusOptions opts;
  opts.counts = {4, 4, 4, 4};
  opts.max_n = 100;
  const auto soc = build_graph_corpus(opts, "social");
  EXPECT_FALSE(soc.empty());
  for (const auto& t : soc) EXPECT_EQ(t.klass, "social");
}

TEST(GraphCorpus, MatricesAreLaplacians) {
  GraphCorpusOptions opts;
  opts.counts = {3, 3, 3, 3};
  opts.max_n = 80;
  for (const auto& t : build_graph_corpus(opts)) {
    // Unit diagonal (non-isolated vertices), off-diagonals in [-1, 0].
    std::size_t diag_ones = 0;
    for (std::size_t i = 0; i < t.n(); ++i) {
      const double d = t.matrix.at(i, i);
      EXPECT_TRUE(d == 0.0 || d == 1.0);
      diag_ones += (d == 1.0);
    }
    EXPECT_GT(diag_ones, t.n() / 2);
    for (std::size_t i = 0; i < std::min<std::size_t>(t.n(), 12); ++i) {
      for (std::size_t j = 0; j < std::min<std::size_t>(t.n(), 12); ++j) {
        if (i == j) continue;
        const double v = t.matrix.at(i, j);
        EXPECT_LE(v, 1e-12) << t.name;
        EXPECT_GE(v, -1.0 - 1e-12) << t.name;
      }
    }
  }
}

TEST(GraphCorpus, Deterministic) {
  GraphCorpusOptions opts;
  opts.counts = {5, 3, 3, 5};
  opts.max_n = 100;
  const auto a = build_graph_corpus(opts);
  const auto b = build_graph_corpus(opts);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].nnz(), b[i].nnz());
  }
}

TEST(GraphCorpus, CompositionTableConsistent) {
  GraphCorpusOptions opts;
  opts.counts = {6, 6, 6, 9};
  opts.max_n = 100;
  const auto corpus = build_graph_corpus(opts);
  const auto comp = graph_corpus_composition(opts);
  std::size_t total = 0;
  std::set<std::string> classes;
  for (const auto& c : comp) {
    total += c.count;
    classes.insert(c.klass);
    EXPECT_GT(c.count, 0u);
  }
  EXPECT_EQ(total, corpus.size());
  EXPECT_EQ(classes.size(), 4u);
}

TEST(GraphCorpus, MiscellaneousIncludesRangeDrivers) {
  GraphCorpusOptions opts;
  opts.counts = {0, 0, 0, 18};
  const auto misc = build_graph_corpus(opts, "miscellaneous");
  // Twin-star graphs: Laplacian entries ~ 1/(leaves+1) < 2^-9 trigger the
  // OFP8 E4M3 range check. Weighted graphs push further (float16).
  bool has_tiny_entry = false;
  for (const auto& t : misc) {
    for (const double v : t.matrix.values()) {
      if (v != 0.0 && std::abs(v) < 0x1p-10) has_tiny_entry = true;
    }
  }
  EXPECT_TRUE(has_tiny_entry);
}

TEST(NamedCorpus, BuildsEachCorpusLikeItsBuilder) {
  GeneralCorpusOptions gopts;
  gopts.count = 3;
  const auto general = build_general_corpus(gopts);
  const auto named_general = build_named_corpus("general", 3);
  ASSERT_EQ(named_general.size(), general.size());
  for (std::size_t i = 0; i < general.size(); ++i)
    EXPECT_EQ(named_general[i].name, general[i].name);

  GraphCorpusOptions opts;
  opts.counts = {2, 2, 2, 2};
  const auto social = build_graph_corpus(opts, "social");
  const auto named_social = build_named_corpus("social", 2);
  ASSERT_EQ(named_social.size(), social.size());
  ASSERT_FALSE(named_social.empty());
  for (std::size_t i = 0; i < social.size(); ++i) EXPECT_EQ(named_social[i].name, social[i].name);
}

TEST(NamedCorpus, UnknownNameThrowsListingTheValidOnes) {
  try {
    (void)build_named_corpus("socail", 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unknown corpus 'socail' "
                 "(expected general|biological|infrastructure|social|miscellaneous)");
  }
  EXPECT_THROW((void)build_named_corpus("", 2), std::invalid_argument);
}

}  // namespace
}  // namespace mfla
