// reduce.hpp — miniraja portable reducer objects.
//
// RAJA reducers are value-semantic objects captured *by value* by the loop
// lambda; the same user code works across serial, OpenMP and CUDA policies.
// We implement the mechanics RAJA uses: the dispatcher copies the loop body
// once per chunk of work (one chunk per static-partition thread on the host,
// one per thread block on simgpu), every captured reducer in a copy
// accumulates privately in its own `val_` — a register once the body is
// inlined — and hands that partial to its chunk's slot when the copy dies.
// The slots are folded once per loop, in chunk order, so a result depends
// on the loop's chunking (pool width, block geometry) and never on which
// OS thread ran which chunk.
//
// The protocol between dispatcher (forall.hpp) and reducers:
//   1. On the calling thread, the dispatcher makes a *prototype* copy of the
//      body inside CopyScope(kPrototype, chunks); each reducer copy resets
//      its shared state to `chunks` identity slots.
//   2. Each chunk copies the prototype inside CopyScope(chunk, chunks),
//      runs its iterations on the copy, and destroys it, which writes the
//      reducer's partial into slot `chunk`.  Chunks write distinct slots.
//   3. After the launch joins, the prototype dies on the calling thread and
//      folds the slots, in order, into the state's running value.
// Copies made outside a dispatcher (capturing the lambda, copying a reducer
// by hand) are plain handles: they share the state, and fold whatever they
// accumulated into it when destroyed.  A reducer reused across several
// loops therefore totals all of them.
#pragma once

#include <limits>
#include <memory>
#include <vector>

namespace raja {

namespace detail {

/// Which copy of a loop body the calling thread is making; set by the
/// dispatcher around each copy, read by reducer copy constructors.
struct CopyContext {
  long chunk;   // >= 0: a chunk copy; kPrototype: the launch's prototype
  long chunks;  // chunks in the launch
};
inline constexpr long kPrototype = -1;
inline constexpr long kHandle = -2;
inline thread_local const CopyContext* copy_context = nullptr;

/// RAII binding of the calling thread's copy context.
class CopyScope {
public:
  CopyScope(long chunk, long chunks)
      : context_{chunk, chunks}, previous_(copy_context) {
    copy_context = &context_;
  }
  ~CopyScope() { copy_context = previous_; }

  CopyScope(const CopyScope&) = delete;
  CopyScope& operator=(const CopyScope&) = delete;

private:
  CopyContext context_;
  const CopyContext* previous_;
};

/// A copy of `body` made under CopyScope(chunk, chunks).  Guaranteed copy
/// elision constructs the copy in the caller while the scope is live.
template <typename F>
F copy_for_chunk(const F& body, long chunk, long chunks) {
  const CopyScope scope(chunk, chunks);
  return F(body);
}

struct FoldSum {
  template <typename T>
  static constexpr T identity() {
    return T{};
  }
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a + b;
  }
};
struct FoldMin {
  template <typename T>
  static constexpr T identity() {
    return std::numeric_limits<T>::has_infinity
               ? std::numeric_limits<T>::infinity()
               : std::numeric_limits<T>::max();
  }
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return b < a ? b : a;
  }
};
struct FoldMax {
  template <typename T>
  static constexpr T identity() {
    return std::numeric_limits<T>::has_infinity
               ? -std::numeric_limits<T>::infinity()
               : std::numeric_limits<T>::lowest();
  }
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a < b ? b : a;
  }
};

template <typename T, typename Fold>
struct ReducerState {
  T value = Fold::template identity<T>();  // folded total of finished loops
  std::vector<T> slots;  // one partial per chunk of the running loop

  void fold_slots() {
    for (const T& s : slots) value = Fold()(value, s);
    slots.clear();
  }
};

template <typename T, typename Fold>
class Reducer {
public:
  explicit Reducer(T initial)
      : owner_(std::make_shared<ReducerState<T, Fold>>()),
        state_(owner_.get()),
        initial_(initial) {}

  Reducer(const Reducer& other)
      : state_(other.state_), initial_(other.initial_) {
    if (const CopyContext* ctx = copy_context) {
      chunk_ = ctx->chunk;
      if (chunk_ == kPrototype) {
        state_->slots.assign(static_cast<std::size_t>(ctx->chunks),
                             Fold::template identity<T>());
      }
    } else {
      owner_ = other.owner_;
    }
  }

  Reducer& operator=(const Reducer&) = delete;

  ~Reducer() {
    ReducerState<T, Fold>& s = *state_;
    if (chunk_ >= 0) {
      T& slot = s.slots[static_cast<std::size_t>(chunk_)];
      slot = Fold()(slot, val_);
    } else if (chunk_ == kPrototype) {
      s.fold_slots();
    } else {
      s.value = Fold()(s.value, val_);
    }
  }

  /// Final reduced value (RAJA's implicit conversion / .get()).
  T get() const { return Fold()(initial_, Fold()(state_->value, val_)); }
  operator T() const { return get(); }

protected:
  void combine(const T& v) const { val_ = Fold()(val_, v); }

private:
  // Handles share ownership of the state.  Prototype and chunk copies live
  // only while the original does and reach it through the raw pointer: a
  // shared_ptr copy there would put atomic reference-count updates around
  // the loop, and GCC then keeps `val_` in memory instead of a register.
  std::shared_ptr<ReducerState<T, Fold>> owner_;
  ReducerState<T, Fold>* state_;
  T initial_;
  // Starts at a compile-time identity: a runtime value loaded before the
  // slots are sized would be live across that call, and with no
  // callee-saved vector registers on x86-64 GCC then keeps the loop's
  // accumulator in its spill slot.
  mutable T val_ = Fold::template identity<T>();
  long chunk_ = kHandle;
};

}  // namespace detail

template <typename T>
class ReduceSum : public detail::Reducer<T, detail::FoldSum> {
public:
  explicit ReduceSum(T initial = T{})
      : detail::Reducer<T, detail::FoldSum>(initial) {}
  /// RAJA idiom: `sum += value;` inside the loop body.
  const ReduceSum& operator+=(const T& v) const {
    this->combine(v);
    return *this;
  }
};

template <typename T>
class ReduceMin : public detail::Reducer<T, detail::FoldMin> {
public:
  explicit ReduceMin(T initial)
      : detail::Reducer<T, detail::FoldMin>(initial) {}
  const ReduceMin& min(const T& v) const {
    this->combine(v);
    return *this;
  }
};

template <typename T>
class ReduceMax : public detail::Reducer<T, detail::FoldMax> {
public:
  explicit ReduceMax(T initial)
      : detail::Reducer<T, detail::FoldMax>(initial) {}
  const ReduceMax& max(const T& v) const {
    this->combine(v);
    return *this;
  }
};

}  // namespace raja
