#include "tree/heavy_path.hpp"

#include <algorithm>

namespace croute {

HeavyPathDecomposition::HeavyPathDecomposition(const Tree& tree) {
  const std::uint32_t n = tree.size();
  heavy_child_.assign(n, kNoLocal);
  light_.assign(n, 0);
  light_depth_.assign(n, 0);
  head_.assign(n, kNoLocal);
  dfs_in_.assign(n, 0);
  dfs_out_.assign(n, 0);
  order_.assign(n, 0);
  visit_off_.assign(std::size_t{n} + 1, 0);
  visit_.clear();
  visit_.reserve(n);

  // Heavy children and per-node visit orders.
  for (std::uint32_t v = 0; v < n; ++v) {
    const auto kids = tree.children(v);
    visit_off_[v] = static_cast<std::uint32_t>(visit_.size());
    if (kids.empty()) continue;
    visit_.insert(visit_.end(), kids.begin(), kids.end());
    const auto order = visit_.begin() + visit_off_[v];
    std::sort(order, visit_.end(), [&](std::uint32_t a, std::uint32_t b) {
      const std::uint32_t sa = tree.subtree_size(a);
      const std::uint32_t sb = tree.subtree_size(b);
      if (sa != sb) return sa > sb;
      return a < b;
    });
    heavy_child_[v] = *order;
  }
  visit_off_[n] = static_cast<std::uint32_t>(visit_.size());
  for (std::uint32_t v = 0; v < n; ++v) {
    if (tree.is_root(v)) continue;
    light_[v] = heavy_child_[tree.parent(v)] != v;
  }

  // Heavy-first DFS (iterative): assigns dfs numbers, light depth, heads.
  std::uint32_t counter = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stack;  // (node, child idx)
  const std::uint32_t root = tree.root();
  head_[root] = root;
  stack.emplace_back(root, 0);
  dfs_in_[root] = counter;
  order_[counter++] = root;
  while (!stack.empty()) {
    auto& [v, idx] = stack.back();
    const auto kids = visit_order(v);
    if (idx < kids.size()) {
      const std::uint32_t c = kids[idx++];
      light_depth_[c] = light_depth_[v] + (light_[c] ? 1 : 0);
      max_light_depth_ = std::max(max_light_depth_, light_depth_[c]);
      head_[c] = light_[c] ? c : head_[v];
      dfs_in_[c] = counter;
      order_[counter++] = c;
      stack.emplace_back(c, 0);
    } else {
      dfs_out_[v] = counter;
      stack.pop_back();
    }
  }
  CROUTE_ASSERT(counter == n, "DFS did not visit every node");
}

}  // namespace croute
