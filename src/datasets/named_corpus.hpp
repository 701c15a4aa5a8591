// The built-in corpora by name, as the CLI and the serving daemon spell
// them: "general" (general_corpus.hpp) or one graph class
// (graph_corpus.hpp). Both front ends build their datasets here, so the
// same (name, count) request yields byte-identical sweeps either way.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "datasets/test_matrix.hpp"

namespace mfla {

/// `count` matrices of the named corpus ("general", "biological",
/// "infrastructure", "social" or "miscellaneous"). Throws
/// std::invalid_argument naming the valid corpora on anything else.
[[nodiscard]] std::vector<TestMatrix> build_named_corpus(const std::string& name,
                                                         std::size_t count);

}  // namespace mfla
