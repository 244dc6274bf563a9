#include "omx/parser/parser.hpp"

#include <optional>
#include <unordered_map>

#include "omx/parser/lexer.hpp"

namespace omx::parser {

namespace {

std::optional<expr::Func1> lookup_func1(const std::string& name) {
  static const std::unordered_map<std::string, expr::Func1> table{
      {"sin", expr::Func1::kSin},   {"cos", expr::Func1::kCos},
      {"tan", expr::Func1::kTan},   {"asin", expr::Func1::kAsin},
      {"acos", expr::Func1::kAcos}, {"atan", expr::Func1::kAtan},
      {"sinh", expr::Func1::kSinh}, {"cosh", expr::Func1::kCosh},
      {"tanh", expr::Func1::kTanh}, {"exp", expr::Func1::kExp},
      {"log", expr::Func1::kLog},   {"sqrt", expr::Func1::kSqrt},
      {"abs", expr::Func1::kAbs},   {"sign", expr::Func1::kSign},
  };
  auto it = table.find(name);
  return it == table.end() ? std::nullopt : std::optional(it->second);
}

std::optional<expr::Func2> lookup_func2(const std::string& name) {
  static const std::unordered_map<std::string, expr::Func2> table{
      {"atan2", expr::Func2::kAtan2},
      {"min", expr::Func2::kMin},
      {"max", expr::Func2::kMax},
      {"hypot", expr::Func2::kHypot},
  };
  auto it = table.find(name);
  return it == table.end() ? std::nullopt : std::optional(it->second);
}

class Parser {
 public:
  Parser(std::vector<Token> toks, expr::Context& ctx)
      : toks_(std::move(toks)), ctx_(ctx) {}

  model::Model parse_model() {
    expect(TokKind::kKwModel);
    const std::string name = expect(TokKind::kIdent).text;
    model::Model m(name, ctx_);
    while (!check(TokKind::kKwEnd)) {
      if (check(TokKind::kKwClass)) {
        parse_class(m);
      } else if (check(TokKind::kKwInstance)) {
        parse_instance(m);
      } else {
        throw omx::Error(std::string("expected 'class' or 'instance', got ") +
                             tok_kind_name(peek().kind),
                         peek().loc);
      }
    }
    expect(TokKind::kKwEnd);
    expect(TokKind::kEof);
    return m;
  }

  expr::ExprId parse_single_expression() {
    const expr::ExprId e = expression();
    expect(TokKind::kEof);
    return e;
  }

 private:
  // -- token helpers ---------------------------------------------------------
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, toks_.size() - 1);
    return toks_[i];
  }
  bool check(TokKind k) const { return peek().kind == k; }
  bool accept(TokKind k) {
    if (check(k)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Token expect(TokKind k) {
    if (!check(k)) {
      throw omx::Error(std::string("expected ") + tok_kind_name(k) +
                           ", got " + tok_kind_name(peek().kind),
                       peek().loc);
    }
    return toks_[pos_++];
  }

  // -- declarations ------------------------------------------------------------
  void parse_class(model::Model& m) {
    expect(TokKind::kKwClass);
    const Token name = expect(TokKind::kIdent);
    model::ClassDef& c = m.add_class(name.text);
    if (accept(TokKind::kLParen)) {
      do {
        c.add_formal(ctx_.symbol(expect(TokKind::kIdent).text));
      } while (accept(TokKind::kComma));
      expect(TokKind::kRParen);
    }
    if (accept(TokKind::kKwInherits)) {
      const std::string base = expect(TokKind::kIdent).text;
      std::vector<expr::ExprId> args;
      if (accept(TokKind::kLParen)) {
        if (!check(TokKind::kRParen)) {
          do {
            args.push_back(expression());
          } while (accept(TokKind::kComma));
        }
        expect(TokKind::kRParen);
      }
      c.set_base(base, std::move(args));
    }
    while (!check(TokKind::kKwEnd)) {
      parse_member(c);
    }
    expect(TokKind::kKwEnd);
  }

  void parse_member(model::ClassDef& c) {
    if (accept(TokKind::kKwVar)) {
      do {
        model::Variable v;
        const Token name = expect(TokKind::kIdent);
        v.name = ctx_.symbol(name.text);
        v.loc = name.loc;
        if (accept(TokKind::kKwStart)) {
          v.start = expression();
        }
        c.add_variable(v);
      } while (accept(TokKind::kComma));
      expect(TokKind::kSemicolon);
      return;
    }
    if (accept(TokKind::kKwParam)) {
      do {
        model::Parameter p;
        const Token name = expect(TokKind::kIdent);
        p.name = ctx_.symbol(name.text);
        p.loc = name.loc;
        expect(TokKind::kEqual);
        p.value = expression();
        c.add_parameter(p);
      } while (accept(TokKind::kComma));
      expect(TokKind::kSemicolon);
      return;
    }
    if (accept(TokKind::kKwPart)) {
      model::Part p;
      const Token name = expect(TokKind::kIdent);
      p.name = ctx_.symbol(name.text);
      p.loc = name.loc;
      expect(TokKind::kColon);
      p.class_name = expect(TokKind::kIdent).text;
      if (accept(TokKind::kLParen)) {
        if (!check(TokKind::kRParen)) {
          do {
            p.args.push_back(expression());
          } while (accept(TokKind::kComma));
        }
        expect(TokKind::kRParen);
      }
      expect(TokKind::kSemicolon);
      c.add_part(std::move(p));
      return;
    }
    if (accept(TokKind::kKwEq)) {
      model::Equation e;
      e.loc = peek().loc;
      e.lhs = equation_lhs();
      expect(TokKind::kEqualEqual);
      e.rhs = expression();
      expect(TokKind::kSemicolon);
      c.add_equation(e);
      return;
    }
    if (accept(TokKind::kKwWhen)) {
      model::WhenClause w;
      w.loc = peek().loc;
      // Optional direction marker. The words up/down/cross are ordinary
      // identifiers elsewhere, but reserved in this leading position —
      // a guard variable with one of these names needs an explicit
      // marker first (e.g. `when cross up then ...`).
      if (check(TokKind::kIdent)) {
        if (peek().text == "up") {
          w.direction = 1;
          ++pos_;
        } else if (peek().text == "down") {
          w.direction = -1;
          ++pos_;
        } else if (peek().text == "cross") {
          w.direction = 0;
          ++pos_;
        }
      }
      w.guard = expression();
      expect(TokKind::kKwThen);
      do {
        const std::string target = qualified_name();
        expect(TokKind::kEqual);
        w.resets.emplace_back(ctx_.symbol(target), expression());
      } while (accept(TokKind::kComma));
      expect(TokKind::kSemicolon);
      c.add_when(std::move(w));
      return;
    }
    throw omx::Error(
        std::string("expected 'var', 'param', 'part', 'eq' or 'when', got ") +
            tok_kind_name(peek().kind),
        peek().loc);
  }

  void parse_instance(model::Model& m) {
    expect(TokKind::kKwInstance);
    model::Instance inst;
    const Token name = expect(TokKind::kIdent);
    inst.name = name.text;
    inst.loc = name.loc;
    if (accept(TokKind::kLBracket)) {
      const Token lo = expect(TokKind::kNumber);
      expect(TokKind::kDotDot);
      const Token hi = expect(TokKind::kNumber);
      expect(TokKind::kRBracket);
      inst.is_array = true;
      inst.lo = static_cast<int>(lo.number);
      inst.hi = static_cast<int>(hi.number);
      if (inst.lo != lo.number || inst.hi != hi.number) {
        throw omx::Error("instance range bounds must be integers", lo.loc);
      }
    }
    expect(TokKind::kColon);
    inst.class_name = expect(TokKind::kIdent).text;
    if (accept(TokKind::kLParen)) {
      if (!check(TokKind::kRParen)) {
        do {
          inst.args.push_back(expression());
        } while (accept(TokKind::kComma));
      }
      expect(TokKind::kRParen);
    }
    expect(TokKind::kSemicolon);
    m.add_instance(std::move(inst));
  }

  // -- expressions -------------------------------------------------------------
  expr::ExprId equation_lhs() {
    if (accept(TokKind::kKwDer)) {
      expect(TokKind::kLParen);
      const std::string name = qualified_name();
      expect(TokKind::kRParen);
      return ctx_.pool.der(ctx_.pool.sym(ctx_.symbol(name)));
    }
    return expression();
  }

  expr::ExprId expression() { return additive(); }

  expr::ExprId additive() {
    expr::ExprId e = multiplicative();
    while (true) {
      if (accept(TokKind::kPlus)) {
        e = ctx_.pool.add(e, multiplicative());
      } else if (accept(TokKind::kMinus)) {
        e = ctx_.pool.sub(e, multiplicative());
      } else {
        return e;
      }
    }
  }

  expr::ExprId multiplicative() {
    expr::ExprId e = unary();
    while (true) {
      if (accept(TokKind::kStar)) {
        e = ctx_.pool.mul(e, unary());
      } else if (accept(TokKind::kSlash)) {
        e = ctx_.pool.div(e, unary());
      } else {
        return e;
      }
    }
  }

  expr::ExprId unary() {
    if (accept(TokKind::kMinus)) {
      return ctx_.pool.neg(unary());
    }
    return power();
  }

  expr::ExprId power() {
    const expr::ExprId base = primary();
    if (accept(TokKind::kCaret)) {
      // Right-associative: a^b^c == a^(b^c).
      return ctx_.pool.pow(base, unary());
    }
    return base;
  }

  expr::ExprId primary() {
    if (check(TokKind::kNumber)) {
      return ctx_.pool.constant(expect(TokKind::kNumber).number);
    }
    if (accept(TokKind::kLParen)) {
      const expr::ExprId e = expression();
      expect(TokKind::kRParen);
      return e;
    }
    if (check(TokKind::kIdent)) {
      const Token& name_tok = peek();
      // Function call?
      if (peek(1).kind == TokKind::kLParen) {
        const std::string fname = expect(TokKind::kIdent).text;
        expect(TokKind::kLParen);
        std::vector<expr::ExprId> args;
        if (!check(TokKind::kRParen)) {
          do {
            args.push_back(expression());
          } while (accept(TokKind::kComma));
        }
        expect(TokKind::kRParen);
        if (auto f1 = lookup_func1(fname)) {
          if (args.size() != 1) {
            throw omx::Error("function '" + fname + "' expects 1 argument",
                             name_tok.loc);
          }
          return ctx_.pool.call(*f1, args[0]);
        }
        if (auto f2 = lookup_func2(fname)) {
          if (args.size() != 2) {
            throw omx::Error("function '" + fname + "' expects 2 arguments",
                             name_tok.loc);
          }
          return ctx_.pool.call(*f2, args[0], args[1]);
        }
        if (fname == "pow") {
          if (args.size() != 2) {
            throw omx::Error("pow expects 2 arguments", name_tok.loc);
          }
          return ctx_.pool.pow(args[0], args[1]);
        }
        throw omx::Error("unknown function '" + fname + "'", name_tok.loc);
      }
      return ctx_.pool.sym(ctx_.symbol(qualified_name()));
    }
    throw omx::Error(std::string("expected an expression, got ") +
                         tok_kind_name(peek().kind),
                     peek().loc);
  }

  /// name := IDENT (("." IDENT) | ("[" INT "]"))*
  /// Builds the canonical flat spelling, e.g. "w[3].contact.fn".
  std::string qualified_name() {
    std::string s = expect(TokKind::kIdent).text;
    while (true) {
      if (accept(TokKind::kDot)) {
        s += '.';
        s += expect(TokKind::kIdent).text;
      } else if (check(TokKind::kLBracket) &&
                 peek(1).kind == TokKind::kNumber &&
                 peek(2).kind == TokKind::kRBracket) {
        expect(TokKind::kLBracket);
        const Token idx = expect(TokKind::kNumber);
        expect(TokKind::kRBracket);
        if (idx.number != static_cast<int>(idx.number)) {
          throw omx::Error("index must be an integer", idx.loc);
        }
        s += '[';
        s += std::to_string(static_cast<int>(idx.number));
        s += ']';
      } else {
        return s;
      }
    }
  }

  std::vector<Token> toks_;
  expr::Context& ctx_;
  std::size_t pos_ = 0;
};

}  // namespace

model::Model parse_model(std::string_view source, expr::Context& ctx) {
  return Parser(tokenize(source), ctx).parse_model();
}

expr::ExprId parse_expression(std::string_view source, expr::Context& ctx) {
  return Parser(tokenize(source), ctx).parse_single_expression();
}

}  // namespace omx::parser
