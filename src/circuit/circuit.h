// Arithmetic circuits for Valid predicates (paper Appendix C.1).
//
// A circuit is a topologically ordered list of gates over a prime field:
// inputs, constants, +, -, *, and multiply-by-constant. Wire ids are gate
// indices. Circuits in this codebase follow the Appendix I convention that
// every *output* wire must evaluate to ZERO for a valid input (the servers
// test a random linear combination of the outputs against zero), rather
// than the body-text convention of a single output equal to one.
//
// Two evaluation modes:
//  * evaluate():     plain evaluation on field values (the client side);
//  * eval_shares():  evaluation on additive shares (the server side), where
//    multiplication-gate outputs are NOT computed (shares cannot be
//    multiplied locally) but taken from a caller-provided vector -- in the
//    SNIP these come from the client-supplied polynomial h evaluated at the
//    gate's domain point. Constants contribute only to the first server's
//    share so that shares still sum to the right value.
#pragma once

#include <vector>

#include "field/field.h"
#include "util/common.h"

namespace prio {

enum class GateOp : u8 {
  kInput,     // value = input[aux]
  kConst,     // value = constant
  kAdd,       // value = wire[a] + wire[b]
  kSub,       // value = wire[a] - wire[b]
  kMul,       // value = wire[a] * wire[b]
  kMulConst,  // value = wire[a] * constant
};

template <PrimeField F>
struct Gate {
  GateOp op;
  u32 a = 0;    // left operand wire (or input index for kInput)
  u32 b = 0;    // right operand wire
  F constant{}; // used by kConst / kMulConst
};

template <PrimeField F>
class Circuit {
 public:
  size_t num_inputs() const { return num_inputs_; }
  size_t num_wires() const { return gates_.size(); }
  size_t num_mul_gates() const { return mul_gates_.size(); }
  const std::vector<u32>& mul_gates() const { return mul_gates_; }
  const std::vector<u32>& outputs() const { return outputs_; }
  const std::vector<Gate<F>>& gates() const { return gates_; }

  // Plain evaluation; returns every wire value.
  std::vector<F> evaluate(std::span<const F> input) const {
    require(input.size() == num_inputs_, "Circuit::evaluate: input arity");
    std::vector<F> w(gates_.size());
    for (size_t i = 0; i < gates_.size(); ++i) {
      const Gate<F>& g = gates_[i];
      switch (g.op) {
        case GateOp::kInput:    w[i] = input[g.a]; break;
        case GateOp::kConst:    w[i] = g.constant; break;
        case GateOp::kAdd:      w[i] = w[g.a] + w[g.b]; break;
        case GateOp::kSub:      w[i] = w[g.a] - w[g.b]; break;
        case GateOp::kMul:      w[i] = w[g.a] * w[g.b]; break;
        case GateOp::kMulConst: w[i] = w[g.a] * g.constant; break;
      }
    }
    return w;
  }

  // Returns true iff every output wire evaluates to zero on `input`.
  bool is_valid(std::span<const F> input) const {
    std::vector<F> w = evaluate(input);
    for (u32 o : outputs_) {
      if (!w[o].is_zero()) return false;
    }
    return true;
  }

  // Share evaluation (server side). `mul_outputs` supplies one share per
  // multiplication gate, in mul_gates() order. `first_server` selects which
  // server carries the constant terms.
  std::vector<F> eval_shares(std::span<const F> input_share,
                             std::span<const F> mul_outputs,
                             bool first_server) const {
    require(input_share.size() == num_inputs_, "Circuit::eval_shares: arity");
    require(mul_outputs.size() == mul_gates_.size(),
            "Circuit::eval_shares: mul share count");
    std::vector<F> w(gates_.size());
    size_t mul_idx = 0;
    for (size_t i = 0; i < gates_.size(); ++i) {
      const Gate<F>& g = gates_[i];
      switch (g.op) {
        case GateOp::kInput:    w[i] = input_share[g.a]; break;
        case GateOp::kConst:    w[i] = first_server ? g.constant : F::zero(); break;
        case GateOp::kAdd:      w[i] = w[g.a] + w[g.b]; break;
        case GateOp::kSub:      w[i] = w[g.a] - w[g.b]; break;
        case GateOp::kMul:      w[i] = mul_outputs[mul_idx++]; break;
        case GateOp::kMulConst: w[i] = w[g.a] * g.constant; break;
      }
    }
    return w;
  }

  // The values on the left/right input wires of each multiplication gate,
  // extracted from a wire-value vector (plain or shares). These are the
  // evaluations of the SNIP polynomials f and g at the gate points.
  void mul_gate_inputs(std::span<const F> wires, std::vector<F>* left,
                       std::vector<F>* right) const {
    left->resize(mul_gates_.size());
    right->resize(mul_gates_.size());
    for (size_t t = 0; t < mul_gates_.size(); ++t) {
      const Gate<F>& g = gates_[mul_gates_[t]];
      (*left)[t] = wires[g.a];
      (*right)[t] = wires[g.b];
    }
  }

  // Output-wire values from a wire vector.
  std::vector<F> output_values(std::span<const F> wires) const {
    std::vector<F> out;
    out.reserve(outputs_.size());
    for (u32 o : outputs_) out.push_back(wires[o]);
    return out;
  }

 private:
  template <PrimeField G>
  friend class CircuitBuilder;

  std::vector<Gate<F>> gates_;
  std::vector<u32> mul_gates_;
  std::vector<u32> outputs_;
  size_t num_inputs_ = 0;
};

// Incremental circuit construction. Wire handles are plain u32 ids.
template <PrimeField F>
class CircuitBuilder {
 public:
  using Wire = u32;

  // Declares `n` input wires (they occupy ids 0..n-1).
  explicit CircuitBuilder(size_t n) {
    circuit_.num_inputs_ = n;
    circuit_.gates_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      circuit_.gates_.push_back({GateOp::kInput, static_cast<u32>(i), 0, F::zero()});
    }
  }

  Wire input(size_t i) const {
    require(i < circuit_.num_inputs_, "CircuitBuilder::input: bad index");
    return static_cast<Wire>(i);
  }

  Wire constant(const F& c) { return push({GateOp::kConst, 0, 0, c}); }
  Wire add(Wire a, Wire b) { return push({GateOp::kAdd, a, b, F::zero()}); }
  Wire sub(Wire a, Wire b) { return push({GateOp::kSub, a, b, F::zero()}); }
  Wire mul_const(Wire a, const F& c) { return push({GateOp::kMulConst, a, 0, c}); }

  Wire mul(Wire a, Wire b) {
    Wire w = push({GateOp::kMul, a, b, F::zero()});
    circuit_.mul_gates_.push_back(w);
    return w;
  }

  // Marks a wire as an output; a valid input must drive it to zero.
  void assert_zero(Wire w) { circuit_.outputs_.push_back(w); }

  // Convenience: asserts w == c.
  void assert_equals(Wire w, const F& c) { assert_zero(sub(w, constant(c))); }

  // Convenience: b * (b - 1) == 0, i.e. b is a bit. Costs 1 mul gate.
  void assert_bit(Wire b) {
    Wire bm1 = sub(b, constant(F::one()));
    assert_zero(mul(b, bm1));
  }

  Circuit<F> build() { return std::move(circuit_); }

 private:
  Wire push(Gate<F> g) {
    circuit_.gates_.push_back(g);
    return static_cast<Wire>(circuit_.gates_.size() - 1);
  }

  Circuit<F> circuit_;
};

}  // namespace prio
