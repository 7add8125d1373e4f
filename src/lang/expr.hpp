#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bdd/bdd.hpp"
#include "symbolic/space.hpp"

namespace lr::lang {

/// A small expression AST for writing guards and assignments of guarded
/// commands (the paper's action notation, e.g.
/// `d.j == BOT && f.j == 0  -->  d.j := d.g`).
///
/// Expressions are immutable and cheap to copy (shared subtrees). They are
/// either *numeric* (variables, constants, +, -, ite) or *boolean*
/// (comparisons and connectives); compile-time type errors are reported as
/// exceptions when the expression is lowered to BDDs.
///
/// Variable references default to the *current* state copy; `Expr::next()`
/// references the post-state (only meaningful inside relational guards).
class Expr {
 public:
  enum class Kind : std::uint8_t {
    kBoolConst,
    kIntConst,
    kVar,       // numeric variable reference
    kNot,
    kAnd,
    kOr,
    kImplies,
    kIff,
    kEq,
    kNe,
    kLt,
    kLe,
    kGt,
    kGe,
    kAdd,
    kSub,       // saturating at 0 would surprise; it wraps within width+1
    kIte,       // numeric if-then-else: ite(bool, num, num)
  };

  Expr() = default;  // empty expression; using it in compilation throws

  // --- Leaf constructors -----------------------------------------------------
  [[nodiscard]] static Expr constant(std::uint32_t value);
  [[nodiscard]] static Expr bool_const(bool value);
  [[nodiscard]] static Expr var(sym::VarId v);   ///< current-state reference
  [[nodiscard]] static Expr next(sym::VarId v);  ///< next-state reference

  // --- Composite constructors ---------------------------------------------------
  [[nodiscard]] static Expr ite(const Expr& cond, const Expr& then_e,
                                const Expr& else_e);

  [[nodiscard]] bool empty() const noexcept { return node_ == nullptr; }
  [[nodiscard]] Kind kind() const;

  /// True when the expression is boolean-valued.
  [[nodiscard]] bool is_boolean() const;

  /// Renders the expression for diagnostics ("(v0 == 2) && (v1 == 0)").
  [[nodiscard]] std::string to_string() const;

  /// Renders the expression with real variable names from `space`, in the
  /// syntax the model parser accepts (used by the .lr exporter).
  [[nodiscard]] std::string to_string(const sym::Space& space) const;

  /// Appends every variable the expression references (current or next
  /// copy alike, duplicates kept, syntactic order) to `out`. Empty
  /// expressions contribute nothing. The variable-order heuristics use
  /// this to build the action dependence graph before compilation.
  void collect_vars(std::vector<sym::VarId>& out) const;

  // Comparisons (numeric × numeric -> bool).
  [[nodiscard]] Expr operator==(const Expr& rhs) const;
  [[nodiscard]] Expr operator!=(const Expr& rhs) const;
  [[nodiscard]] Expr operator<(const Expr& rhs) const;
  [[nodiscard]] Expr operator<=(const Expr& rhs) const;
  [[nodiscard]] Expr operator>(const Expr& rhs) const;
  [[nodiscard]] Expr operator>=(const Expr& rhs) const;

  // Connectives (bool × bool -> bool).
  [[nodiscard]] Expr operator&&(const Expr& rhs) const;
  [[nodiscard]] Expr operator||(const Expr& rhs) const;
  [[nodiscard]] Expr operator!() const;
  [[nodiscard]] Expr implies(const Expr& rhs) const;
  [[nodiscard]] Expr iff(const Expr& rhs) const;

  // Arithmetic (numeric × numeric -> numeric).
  [[nodiscard]] Expr operator+(const Expr& rhs) const;
  [[nodiscard]] Expr operator-(const Expr& rhs) const;

  /// Convenience for comparisons against literals: `x == 3u`.
  [[nodiscard]] Expr operator==(std::uint32_t rhs) const;
  [[nodiscard]] Expr operator!=(std::uint32_t rhs) const;
  [[nodiscard]] Expr operator<(std::uint32_t rhs) const;
  [[nodiscard]] Expr operator<=(std::uint32_t rhs) const;
  [[nodiscard]] Expr operator>(std::uint32_t rhs) const;
  [[nodiscard]] Expr operator>=(std::uint32_t rhs) const;
  [[nodiscard]] Expr operator+(std::uint32_t rhs) const;
  [[nodiscard]] Expr operator-(std::uint32_t rhs) const;

 private:
  friend class Compiler;

  struct Node {
    Kind kind;
    std::uint32_t value = 0;  // IntConst value / BoolConst (0/1) / VarId
    sym::Version version = sym::Version::kCurrent;  // for kVar
    std::vector<Expr> children;

    Node() = default;
    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;
    /// Releases the subtrees this node alone owns from a local stack, so a
    /// long left-deep `||` chain is torn down without one frame per link.
    ~Node();
  };

  explicit Expr(std::shared_ptr<const Node> node) : node_(std::move(node)) {}
  [[nodiscard]] static Expr make(Kind kind, std::vector<Expr> children);
  [[nodiscard]] static std::string to_string_impl(const Node& n,
                                                  const sym::Space* space);
  [[nodiscard]] const Node& node() const;

  std::shared_ptr<const Node> node_;
};

/// Lowers expressions to BDDs over a Space.
///
/// Boolean expressions become single BDDs; numeric expressions become
/// little-endian bit vectors, zero-extended as needed. Comparisons are
/// ripple comparators, addition is a ripple-carry adder with one extra
/// carry bit (so `x + 1 == d` is expressible for every domain value).
class Compiler {
 public:
  explicit Compiler(sym::Space& space) : space_(space) {}

  /// Compiles a boolean expression; throws std::invalid_argument on type
  /// errors or empty expressions.
  [[nodiscard]] bdd::Bdd compile_bool(const Expr& e);

  /// Compiles a numeric expression to its value bits (LSB first).
  [[nodiscard]] std::vector<bdd::Bdd> compile_bits(const Expr& e);

 private:
  /// The bits of x and of y, compiled y first (see compile_bool).
  [[nodiscard]] std::pair<std::vector<bdd::Bdd>, std::vector<bdd::Bdd>>
  compile_bits_pair(const Expr& x, const Expr& y);
  [[nodiscard]] bdd::Bdd bits_eq(const std::vector<bdd::Bdd>& a,
                                 const std::vector<bdd::Bdd>& b);
  [[nodiscard]] bdd::Bdd bits_lt(const std::vector<bdd::Bdd>& a,
                                 const std::vector<bdd::Bdd>& b);

  sym::Space& space_;
};

}  // namespace lr::lang
