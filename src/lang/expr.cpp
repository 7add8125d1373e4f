#include "lang/expr.hpp"

#include <stdexcept>

namespace lr::lang {

namespace {

[[noreturn]] void type_error(const std::string& what) {
  throw std::invalid_argument("Expr: " + what);
}

}  // namespace

// --- Construction ---------------------------------------------------------------

Expr Expr::make(Kind kind, std::vector<Expr> children) {
  for (const Expr& c : children) {
    if (c.empty()) type_error("operand is an empty expression");
  }
  auto node = std::make_shared<Node>();
  node->kind = kind;
  node->children = std::move(children);
  return Expr(std::move(node));
}

Expr Expr::constant(std::uint32_t value) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kIntConst;
  node->value = value;
  return Expr(std::move(node));
}

Expr Expr::bool_const(bool value) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kBoolConst;
  node->value = value ? 1 : 0;
  return Expr(std::move(node));
}

Expr Expr::var(sym::VarId v) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kVar;
  node->value = v;
  node->version = sym::Version::kCurrent;
  return Expr(std::move(node));
}

Expr Expr::next(sym::VarId v) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kVar;
  node->value = v;
  node->version = sym::Version::kNext;
  return Expr(std::move(node));
}

Expr Expr::ite(const Expr& cond, const Expr& then_e, const Expr& else_e) {
  return make(Kind::kIte, {cond, then_e, else_e});
}

Expr::Node::~Node() {
  // A subtree some other Expr still holds is left to its last owner.
  std::vector<std::shared_ptr<const Node>> owned;
  const auto take_children = [&owned](Node& node) {
    for (Expr& child : node.children) {
      if (child.node_ != nullptr && child.node_.use_count() == 1) {
        owned.push_back(std::move(child.node_));
      }
    }
  };
  take_children(*this);
  while (!owned.empty()) {
    const std::shared_ptr<const Node> node = std::move(owned.back());
    owned.pop_back();
    // Sole owner, and every Node is created non-const by make_shared.
    take_children(const_cast<Node&>(*node));
  }  // `node` dies here with no sole-owned child left to recurse into
}

const Expr::Node& Expr::node() const {
  if (node_ == nullptr) type_error("use of empty expression");
  return *node_;
}

Expr::Kind Expr::kind() const { return node().kind; }

bool Expr::is_boolean() const {
  switch (node().kind) {
    case Kind::kBoolConst:
    case Kind::kNot:
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kImplies:
    case Kind::kIff:
    case Kind::kEq:
    case Kind::kNe:
    case Kind::kLt:
    case Kind::kLe:
    case Kind::kGt:
    case Kind::kGe:
      return true;
    default:
      return false;
  }
}

std::string Expr::to_string() const { return to_string_impl(node(), nullptr); }

std::string Expr::to_string(const sym::Space& space) const {
  return to_string_impl(node(), &space);
}

std::string Expr::to_string_impl(const Node& n, const sym::Space* space) {
  auto sub = [&](const Expr& child) {
    return to_string_impl(child.node(), space);
  };
  auto binary = [&](const char* op) {
    return "(" + sub(n.children[0]) + " " + op + " " + sub(n.children[1]) +
           ")";
  };
  switch (n.kind) {
    case Kind::kBoolConst:
      return n.value != 0 ? "true" : "false";
    case Kind::kIntConst:
      return std::to_string(n.value);
    case Kind::kVar: {
      const std::string name =
          space != nullptr ? space->info(n.value).name
                           : "v" + std::to_string(n.value);
      return n.version == sym::Version::kNext ? "next(" + name + ")" : name;
    }
    case Kind::kNot:
      return "!" + sub(n.children[0]);
    case Kind::kAnd:
      return binary("&&");
    case Kind::kOr:
      return binary("||");
    case Kind::kImplies:
      return "(!" + sub(n.children[0]) + " || " + sub(n.children[1]) + ")";
    case Kind::kIff:
      return "(" + sub(n.children[0]) + " == " + sub(n.children[1]) + ")";
    case Kind::kEq:
      return binary("==");
    case Kind::kNe:
      return binary("!=");
    case Kind::kLt:
      return binary("<");
    case Kind::kLe:
      return binary("<=");
    case Kind::kGt:
      return binary(">");
    case Kind::kGe:
      return binary(">=");
    case Kind::kAdd:
      return binary("+");
    case Kind::kSub:
      return binary("-");
    case Kind::kIte:
      return "ite(" + sub(n.children[0]) + ", " + sub(n.children[1]) + ", " +
             sub(n.children[2]) + ")";
  }
  return "?";
}

// --- Operator sugar -----------------------------------------------------------------

Expr Expr::operator==(const Expr& rhs) const { return make(Kind::kEq, {*this, rhs}); }
Expr Expr::operator!=(const Expr& rhs) const { return make(Kind::kNe, {*this, rhs}); }
Expr Expr::operator<(const Expr& rhs) const { return make(Kind::kLt, {*this, rhs}); }
Expr Expr::operator<=(const Expr& rhs) const { return make(Kind::kLe, {*this, rhs}); }
Expr Expr::operator>(const Expr& rhs) const { return make(Kind::kGt, {*this, rhs}); }
Expr Expr::operator>=(const Expr& rhs) const { return make(Kind::kGe, {*this, rhs}); }
Expr Expr::operator&&(const Expr& rhs) const { return make(Kind::kAnd, {*this, rhs}); }
Expr Expr::operator||(const Expr& rhs) const { return make(Kind::kOr, {*this, rhs}); }
Expr Expr::operator!() const { return make(Kind::kNot, {*this}); }
Expr Expr::implies(const Expr& rhs) const { return make(Kind::kImplies, {*this, rhs}); }
Expr Expr::iff(const Expr& rhs) const { return make(Kind::kIff, {*this, rhs}); }
Expr Expr::operator+(const Expr& rhs) const { return make(Kind::kAdd, {*this, rhs}); }
Expr Expr::operator-(const Expr& rhs) const { return make(Kind::kSub, {*this, rhs}); }

Expr Expr::operator==(std::uint32_t rhs) const { return *this == constant(rhs); }
Expr Expr::operator!=(std::uint32_t rhs) const { return *this != constant(rhs); }
Expr Expr::operator<(std::uint32_t rhs) const { return *this < constant(rhs); }
Expr Expr::operator<=(std::uint32_t rhs) const { return *this <= constant(rhs); }
Expr Expr::operator>(std::uint32_t rhs) const { return *this > constant(rhs); }
Expr Expr::operator>=(std::uint32_t rhs) const { return *this >= constant(rhs); }
Expr Expr::operator+(std::uint32_t rhs) const { return *this + constant(rhs); }
Expr Expr::operator-(std::uint32_t rhs) const { return *this - constant(rhs); }

// --- Compilation -----------------------------------------------------------------------

bdd::Bdd Compiler::compile_bool(const Expr& e) {
  const auto& n = e.node();
  bdd::Manager& mgr = space_.manager();
  switch (n.kind) {
    case Expr::Kind::kBoolConst:
      return n.value != 0 ? mgr.bdd_true() : mgr.bdd_false();
    case Expr::Kind::kNot:
      return ~compile_bool(n.children[0]);
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      // The parser builds a same-operator chain left-deep, so a || b || c
      // is ((a || b) || c), and an exported guard can list tens of
      // thousands of values: walk the left spine in a loop. The right
      // operands are compiled first, from the top of the chain down, then
      // the leftmost one, and the fold runs left to right, releasing each
      // right operand once it is folded in. That is the order of BDD
      // operations, with the same handles alive at each, that GCC gives
      // the recursive compile_bool(l) | compile_bool(r) (right operand
      // first); the step ledger and goldens are measured in it.
      std::vector<bdd::Bdd> rights;
      const Expr* left = &e;
      for (; left->node().kind == n.kind; left = &left->node().children[0]) {
        rights.push_back(compile_bool(left->node().children[1]));
      }
      bdd::Bdd acc = compile_bool(*left);
      for (; !rights.empty(); rights.pop_back()) {
        acc = n.kind == Expr::Kind::kAnd ? acc & rights.back()
                                         : acc | rights.back();
      }
      return acc;
    }
    // A member call's object expression is sequenced before its
    // arguments (C++17), so these compile the left operand first whatever
    // the compiler.
    case Expr::Kind::kImplies:
      return compile_bool(n.children[0]).implies(compile_bool(n.children[1]));
    case Expr::Kind::kIff:
      return compile_bool(n.children[0]).iff(compile_bool(n.children[1]));
    // A comparison compiles both operand bit-vectors before bits_eq /
    // bits_lt runs, the one it takes second first. As two call arguments
    // their order would be unspecified; GCC evaluates such arguments right
    // to left, and the step ledger and goldens are measured in that order.
    case Expr::Kind::kEq: {
      const auto [x, y] = compile_bits_pair(n.children[0], n.children[1]);
      return bits_eq(x, y);
    }
    case Expr::Kind::kNe: {
      const auto [x, y] = compile_bits_pair(n.children[0], n.children[1]);
      return ~bits_eq(x, y);
    }
    case Expr::Kind::kLt: {
      const auto [x, y] = compile_bits_pair(n.children[0], n.children[1]);
      return bits_lt(x, y);
    }
    case Expr::Kind::kLe: {
      const auto [x, y] = compile_bits_pair(n.children[1], n.children[0]);
      return ~bits_lt(x, y);
    }
    case Expr::Kind::kGt: {
      const auto [x, y] = compile_bits_pair(n.children[1], n.children[0]);
      return bits_lt(x, y);
    }
    case Expr::Kind::kGe: {
      const auto [x, y] = compile_bits_pair(n.children[0], n.children[1]);
      return ~bits_lt(x, y);
    }
    default:
      throw std::invalid_argument(
          "Compiler::compile_bool: numeric expression used as boolean: " +
          e.to_string());
  }
}

std::vector<bdd::Bdd> Compiler::compile_bits(const Expr& e) {
  const auto& n = e.node();
  bdd::Manager& mgr = space_.manager();
  switch (n.kind) {
    case Expr::Kind::kIntConst: {
      std::vector<bdd::Bdd> bits;
      std::uint32_t v = n.value;
      do {
        bits.push_back((v & 1u) != 0 ? mgr.bdd_true() : mgr.bdd_false());
        v >>= 1;
      } while (v != 0);
      return bits;
    }
    case Expr::Kind::kVar: {
      const sym::VariableInfo& info = space_.info(n.value);
      const auto& vbits = n.version == sym::Version::kCurrent
                              ? info.cur_bits
                              : info.next_bits;
      std::vector<bdd::Bdd> bits;
      bits.reserve(vbits.size());
      for (const bdd::VarIndex b : vbits) bits.push_back(mgr.bdd_var(b));
      return bits;
    }
    case Expr::Kind::kAdd: {
      const auto a = compile_bits(n.children[0]);
      const auto b = compile_bits(n.children[1]);
      const std::size_t width = std::max(a.size(), b.size());
      std::vector<bdd::Bdd> sum;
      sum.reserve(width + 1);
      bdd::Bdd carry = mgr.bdd_false();
      for (std::size_t i = 0; i < width; ++i) {
        const bdd::Bdd ai = i < a.size() ? a[i] : mgr.bdd_false();
        const bdd::Bdd bi = i < b.size() ? b[i] : mgr.bdd_false();
        sum.push_back(ai ^ bi ^ carry);
        carry = (ai & bi) | (carry & (ai ^ bi));
      }
      sum.push_back(carry);  // extra bit: no silent wraparound
      return sum;
    }
    case Expr::Kind::kSub: {
      // a - b via two's complement within max(width)+1 bits; callers use it
      // for comparisons/decrements where the result is known non-negative.
      const auto a = compile_bits(n.children[0]);
      const auto b = compile_bits(n.children[1]);
      const std::size_t width = std::max(a.size(), b.size()) + 1;
      std::vector<bdd::Bdd> diff;
      diff.reserve(width);
      bdd::Bdd borrow = mgr.bdd_false();
      for (std::size_t i = 0; i < width; ++i) {
        const bdd::Bdd ai = i < a.size() ? a[i] : mgr.bdd_false();
        const bdd::Bdd bi = i < b.size() ? b[i] : mgr.bdd_false();
        diff.push_back(ai ^ bi ^ borrow);
        borrow = ((~ai) & (bi | borrow)) | (bi & borrow);
      }
      return diff;
    }
    case Expr::Kind::kIte: {
      const bdd::Bdd cond = compile_bool(n.children[0]);
      const auto a = compile_bits(n.children[1]);
      const auto b = compile_bits(n.children[2]);
      const std::size_t width = std::max(a.size(), b.size());
      std::vector<bdd::Bdd> out;
      out.reserve(width);
      for (std::size_t i = 0; i < width; ++i) {
        const bdd::Bdd ai = i < a.size() ? a[i] : mgr.bdd_false();
        const bdd::Bdd bi = i < b.size() ? b[i] : mgr.bdd_false();
        out.push_back(cond.ite(ai, bi));
      }
      return out;
    }
    default:
      throw std::invalid_argument(
          "Compiler::compile_bits: boolean expression used as numeric: " +
          e.to_string());
  }
}

std::pair<std::vector<bdd::Bdd>, std::vector<bdd::Bdd>>
Compiler::compile_bits_pair(const Expr& x, const Expr& y) {
  std::vector<bdd::Bdd> y_bits = compile_bits(y);
  std::vector<bdd::Bdd> x_bits = compile_bits(x);
  return {std::move(x_bits), std::move(y_bits)};
}

bdd::Bdd Compiler::bits_eq(const std::vector<bdd::Bdd>& a,
                           const std::vector<bdd::Bdd>& b) {
  bdd::Manager& mgr = space_.manager();
  bdd::Bdd result = mgr.bdd_true();
  const std::size_t width = std::max(a.size(), b.size());
  for (std::size_t i = 0; i < width; ++i) {
    const bdd::Bdd ai = i < a.size() ? a[i] : mgr.bdd_false();
    const bdd::Bdd bi = i < b.size() ? b[i] : mgr.bdd_false();
    result &= ai.iff(bi);
  }
  return result;
}

bdd::Bdd Compiler::bits_lt(const std::vector<bdd::Bdd>& a,
                           const std::vector<bdd::Bdd>& b) {
  bdd::Manager& mgr = space_.manager();
  // a < b: scan LSB to MSB, later (more significant) bits dominate.
  bdd::Bdd result = mgr.bdd_false();
  const std::size_t width = std::max(a.size(), b.size());
  for (std::size_t i = 0; i < width; ++i) {
    const bdd::Bdd ai = i < a.size() ? a[i] : mgr.bdd_false();
    const bdd::Bdd bi = i < b.size() ? b[i] : mgr.bdd_false();
    result = ((~ai) & bi) | (ai.iff(bi) & result);
  }
  return result;
}

}  // namespace lr::lang
