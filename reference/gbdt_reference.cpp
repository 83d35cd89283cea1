#include "reference/gbdt_reference.hpp"

#include <algorithm>
#include <numeric>

namespace harl {
namespace reference {

namespace {

double leaf_score(double grad_sum, double count, double lambda) {
  return grad_sum * grad_sum / (count + lambda);
}

}  // namespace

void ReferenceRegressionTree::fit(const std::vector<double>& x, int num_features,
                                  const std::vector<double>& g,
                                  const std::vector<int>& idx, const GbdtConfig& cfg,
                                  Rng& rng) {
  nodes_.clear();
  std::vector<int> work = idx;
  if (!work.empty()) {
    build(x, num_features, g, work, 0, static_cast<int>(work.size()), 0, cfg, rng);
  }
}

int ReferenceRegressionTree::build(const std::vector<double>& x, int num_features,
                                   const std::vector<double>& g, std::vector<int>& idx,
                                   int begin, int end, int depth,
                                   const GbdtConfig& cfg, Rng& rng) {
  int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back({});

  double grad_sum = 0;
  for (int i = begin; i < end; ++i) grad_sum += g[static_cast<std::size_t>(idx[i])];
  double count = static_cast<double>(end - begin);
  double leaf_value = grad_sum / (count + cfg.l2_lambda);

  bool at_depth_limit = depth >= cfg.max_depth;
  bool too_small = end - begin < 2 * cfg.min_samples_leaf;
  if (at_depth_limit || too_small) {
    nodes_[static_cast<std::size_t>(node_id)].value = leaf_value;
    return node_id;
  }

  double parent_score = leaf_score(grad_sum, count, cfg.l2_lambda);
  double best_gain = 1e-12;
  int best_feature = -1;
  double best_threshold = 0;

  // The defining (and O(n log n) per node per feature) step of the seed:
  // re-sort the node's samples for every candidate feature.
  std::vector<int> order(idx.begin() + begin, idx.begin() + end);
  for (int f = 0; f < num_features; ++f) {
    if (cfg.col_subsample < 1.0 && !rng.next_bool(cfg.col_subsample)) continue;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      double va = x[static_cast<std::size_t>(a) * num_features + f];
      double vb = x[static_cast<std::size_t>(b) * num_features + f];
      return va < vb || (va == vb && a < b);  // pinned tie-break: row index
    });
    double left_sum = 0;
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      left_sum += g[static_cast<std::size_t>(order[i])];
      double xv = x[static_cast<std::size_t>(order[i]) * num_features + f];
      double xn = x[static_cast<std::size_t>(order[i + 1]) * num_features + f];
      if (xv == xn) continue;  // no split point between equal values
      double nl = static_cast<double>(i + 1);
      double nr = count - nl;
      if (nl < cfg.min_samples_leaf || nr < cfg.min_samples_leaf) continue;
      double gain = leaf_score(left_sum, nl, cfg.l2_lambda) +
                    leaf_score(grad_sum - left_sum, nr, cfg.l2_lambda) - parent_score;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = f;
        best_threshold = 0.5 * (xv + xn);
      }
    }
  }

  if (best_feature < 0) {
    nodes_[static_cast<std::size_t>(node_id)].value = leaf_value;
    return node_id;
  }

  auto mid_it =
      std::stable_partition(idx.begin() + begin, idx.begin() + end, [&](int i) {
        return x[static_cast<std::size_t>(i) * num_features + best_feature] <=
               best_threshold;
      });
  int mid = static_cast<int>(mid_it - idx.begin());
  if (mid == begin || mid == end) {  // numeric degeneracy: bail to a leaf
    nodes_[static_cast<std::size_t>(node_id)].value = leaf_value;
    return node_id;
  }

  int left = build(x, num_features, g, idx, begin, mid, depth + 1, cfg, rng);
  int right = build(x, num_features, g, idx, mid, end, depth + 1, cfg, rng);
  Node& node = nodes_[static_cast<std::size_t>(node_id)];
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.left = left;
  node.right = right;
  return node_id;
}

double ReferenceRegressionTree::predict(const double* row) const {
  if (nodes_.empty()) return 0;
  int cur = 0;
  for (;;) {
    const Node& node = nodes_[static_cast<std::size_t>(cur)];
    if (node.feature < 0) return node.value;
    cur = row[node.feature] <= node.threshold ? node.left : node.right;
  }
}

ReferenceGbdt::ReferenceGbdt(GbdtConfig cfg) : cfg_(cfg) {}

void ReferenceGbdt::fit(const std::vector<double>& x, int num_features,
                        const std::vector<double>& y) {
  trees_.clear();
  num_features_ = num_features;
  std::size_t n = y.size();
  if (n == 0) return;
  base_score_ = std::accumulate(y.begin(), y.end(), 0.0) / static_cast<double>(n);

  std::vector<double> pred(n, base_score_);
  std::vector<double> grad(n);
  Rng rng(cfg_.seed);
  for (int t = 0; t < cfg_.num_trees; ++t) {
    for (std::size_t i = 0; i < n; ++i) grad[i] = y[i] - pred[i];
    std::vector<int> idx;
    idx.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (cfg_.row_subsample >= 1.0 || rng.next_bool(cfg_.row_subsample)) {
        idx.push_back(static_cast<int>(i));
      }
    }
    if (idx.size() < 2) continue;
    ReferenceRegressionTree tree;
    tree.fit(x, num_features, grad, idx, cfg_, rng);
    for (std::size_t i = 0; i < n; ++i) {
      pred[i] += cfg_.learning_rate *
                 tree.predict(&x[i * static_cast<std::size_t>(num_features)]);
    }
    trees_.push_back(std::move(tree));
  }
}

double ReferenceGbdt::predict(const double* row) const {
  double p = base_score_;
  for (const ReferenceRegressionTree& t : trees_) {
    p += cfg_.learning_rate * t.predict(row);
  }
  return p;
}

int ReferenceGbdt::total_nodes() const {
  int n = 0;
  for (const ReferenceRegressionTree& t : trees_) n += t.num_nodes();
  return n;
}

}  // namespace reference
}  // namespace harl
