/// Defining a custom operator through the public IR API.
///
/// Builds a batched MLP layer — Y[b,i,j] = act(sum_k X[b,i,k] * W[k,j] + B[j])
/// — as a two-stage subgraph (batched matmul + fusable bias/activation),
/// inspects the sketches HARL generates for it, and tunes it.
///
///   ./build/examples/example_custom_operator

#include <cstdio>

#include "core/harl.hpp"

int main() {
  using namespace harl;
  const std::int64_t batch = 8, rows = 64, in_dim = 256, out_dim = 128;

  // --- Stage 0: the batched matmul, described axis by axis -----------------
  TensorOp matmul;
  matmul.name = "mlp.matmul";
  matmul.kind = OpKind::kBatchGemm;
  matmul.flops_per_point = 2.0;  // multiply + add per reduction point
  matmul.axes = {{"b", batch, AxisKind::kSpatial},
                 {"i", rows, AxisKind::kSpatial},
                 {"j", out_dim, AxisKind::kSpatial},
                 {"k", in_dim, AxisKind::kReduction}};
  TensorAccess x;
  x.tensor_name = "X";  // X[b, i, k]
  x.dims = {DimExpr::of_axis(0), DimExpr::of_axis(1), DimExpr::of_axis(3)};
  TensorAccess w;
  w.tensor_name = "W";  // W[k, j] — shared across the batch (data reuse!)
  w.dims = {DimExpr::of_axis(3), DimExpr::of_axis(2)};
  matmul.inputs = {x, w};

  // --- Stage 1: bias + activation, elementwise over the matmul output -------
  TensorOp act;
  act.name = "mlp.bias_act";
  act.kind = OpKind::kElementwise;
  act.flops_per_point = 3.0;
  act.axes = {{"b", batch, AxisKind::kSpatial},
              {"i", rows, AxisKind::kSpatial},
              {"j", out_dim, AxisKind::kSpatial}};
  TensorAccess prev;
  prev.tensor_name = "mlp.matmul";
  prev.dims = {DimExpr::of_axis(0), DimExpr::of_axis(1), DimExpr::of_axis(2)};
  act.inputs = {prev};

  Stage s0;
  s0.op = matmul;
  s0.producer_of_input = {-1, -1};  // X and W are external tensors
  Stage s1;
  s1.op = act;
  s1.producer_of_input = {0};  // consumes stage 0
  Subgraph mlp("mlp_layer", {s0, s1});

  std::string err = mlp.validate();
  if (!err.empty()) {
    std::printf("subgraph invalid: %s\n", err.c_str());
    return 1;
  }

  // --- What does the sketch generator make of it? ---------------------------
  auto sketches = generate_sketches(mlp);
  std::printf("generated %zu sketches:\n", sketches.size());
  for (const Sketch& sk : sketches) {
    std::printf("  [%d] %-6s  stages:", sk.sketch_id, sk.tag.c_str());
    for (int s = 0; s < mlp.num_stages(); ++s) {
      std::printf(" %s=%s", mlp.stage(s).op.name.c_str(),
                  stage_structure_name(sk.plan(s).structure));
    }
    std::printf("\n");
  }

  // --- Tune it ---------------------------------------------------------------
  TuningSession session(mlp, HardwareConfig::xeon_6226r(),
                        quick_options("HARL"));
  session.run(200);
  std::printf("\nbest simulated time: %.4f ms after %lld trials\n",
              session.task_best_ms(0),
              static_cast<long long>(session.measurer().trials_used()));
  std::printf("\nbest schedule:\n%s",
              session.scheduler().task(0).best_schedule().to_string().c_str());
  return 0;
}
