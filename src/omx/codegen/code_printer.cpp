#include "omx/codegen/code_printer.hpp"

#include <cctype>
#include <sstream>

namespace omx::codegen {

namespace {

int precedence(const expr::Node& n) {
  switch (n.op) {
    case expr::Op::kAdd:
    case expr::Op::kSub:
      return 1;
    case expr::Op::kMul:
    case expr::Op::kDiv:
      return 2;
    case expr::Op::kNeg:
      return 3;
    case expr::Op::kPow:
      return 4;
    default:
      return 5;
  }
}

const char* func1_code_name(expr::Func1 f, Lang lang) {
  const bool cxx = lang != Lang::kFortran90;
  const bool simd = lang == Lang::kCxxSimd;
  switch (f) {
    case expr::Func1::kSin: return simd ? "omx_sin" : cxx ? "std::sin" : "sin";
    case expr::Func1::kCos: return simd ? "omx_cos" : cxx ? "std::cos" : "cos";
    case expr::Func1::kTan:
      return simd ? "__builtin_tan" : cxx ? "std::tan" : "tan";
    case expr::Func1::kAsin:
      return simd ? "__builtin_asin" : cxx ? "std::asin" : "asin";
    case expr::Func1::kAcos:
      return simd ? "__builtin_acos" : cxx ? "std::acos" : "acos";
    case expr::Func1::kAtan:
      return simd ? "__builtin_atan" : cxx ? "std::atan" : "atan";
    case expr::Func1::kSinh:
      return simd ? "__builtin_sinh" : cxx ? "std::sinh" : "sinh";
    case expr::Func1::kCosh:
      return simd ? "__builtin_cosh" : cxx ? "std::cosh" : "cosh";
    case expr::Func1::kTanh:
      return simd ? "omx_tanh" : cxx ? "std::tanh" : "tanh";
    case expr::Func1::kExp: return simd ? "omx_exp" : cxx ? "std::exp" : "exp";
    case expr::Func1::kLog: return simd ? "omx_log" : cxx ? "std::log" : "log";
    // sqrt/fabs lower to single instructions under -fno-math-errno, so
    // they stay vectorizable even in kCxxSimd.
    case expr::Func1::kSqrt:
      return simd ? "__builtin_sqrt" : cxx ? "std::sqrt" : "sqrt";
    case expr::Func1::kAbs:
      return simd ? "__builtin_fabs" : cxx ? "std::fabs" : "abs";
    // Neither language has the mathematical sign() intrinsic with one
    // argument; both runtimes ship an omx_sign helper.
    case expr::Func1::kSign: return "omx_sign";
  }
  return "?";
}

const char* func2_code_name(expr::Func2 f, Lang lang) {
  const bool cxx = lang != Lang::kFortran90;
  const bool simd = lang == Lang::kCxxSimd;
  switch (f) {
    case expr::Func2::kAtan2:
      return simd ? "__builtin_atan2" : cxx ? "std::atan2" : "atan2";
    // std::fmin/fmax stay libm calls the vectorizer cannot widen (IEEE
    // NaN rules do not map onto vminpd/vmaxpd); the omx_ forms are
    // compare+blend selects that vectorize.
    case expr::Func2::kMin: return simd ? "omx_fmin" : cxx ? "std::fmin" : "min";
    case expr::Func2::kMax: return simd ? "omx_fmax" : cxx ? "std::fmax" : "max";
    case expr::Func2::kHypot:
      return simd ? "omx_hypot" : cxx ? "std::hypot" : "omx_hypot";
  }
  return "?";
}

class CodePrinter {
 public:
  CodePrinter(const expr::Pool& p, const Interner& names, Lang lang)
      : p_(p), names_(names), lang_(lang) {}

  void print(std::ostringstream& os, expr::ExprId id, int parent_prec,
             bool right_side) {
    const expr::Node& n = p_.node(id);
    const int prec = precedence(n);
    const bool parens =
        prec < parent_prec ||
        (prec == parent_prec && right_side && prec != 4 && prec != 5);
    switch (n.op) {
      case expr::Op::kConst: {
        const double v = p_.const_value(id);
        std::ostringstream num;
        num.precision(17);
        num << v;
        std::string s = num.str();
        // Force a floating literal (Fortran integer division pitfalls, C++
        // int/int truncation): append .0 when no '.', 'e' or similar.
        if (s.find_first_of(".eE") == std::string::npos &&
            s.find("inf") == std::string::npos &&
            s.find("nan") == std::string::npos) {
          s += ".0";
        }
        if (lang_ == Lang::kFortran90) {
          s += "_dp";
        }
        if (v < 0.0) {
          os << '(' << s << ')';
        } else {
          os << s;
        }
        return;
      }
      case expr::Op::kSym:
        os << names_.name(static_cast<SymbolId>(n.a));
        return;
      case expr::Op::kCall1:
        os << func1_code_name(static_cast<expr::Func1>(n.fn), lang_) << '(';
        print(os, n.a, 0, false);
        os << ')';
        return;
      case expr::Op::kCall2:
        os << func2_code_name(static_cast<expr::Func2>(n.fn), lang_) << '(';
        print(os, n.a, 0, false);
        os << ", ";
        print(os, n.b, 0, false);
        os << ')';
        return;
      case expr::Op::kPow:
        if (lang_ != Lang::kFortran90) {
          os << (lang_ == Lang::kCxxSimd ? "omx_pow(" : "std::pow(");
          print(os, n.a, 0, false);
          os << ", ";
          print(os, n.b, 0, false);
          os << ')';
          return;
        }
        if (parens) os << '(';
        print(os, n.a, 5, false);
        os << "**";
        print(os, n.b, 4, true);
        if (parens) os << ')';
        return;
      case expr::Op::kDer:
        throw omx::Error("cannot emit der() as a value");
      default:
        break;
    }
    if (parens) os << '(';
    switch (n.op) {
      case expr::Op::kAdd:
        print(os, n.a, 1, false);
        os << " + ";
        print(os, n.b, 1, true);
        break;
      case expr::Op::kSub:
        print(os, n.a, 1, false);
        os << " - ";
        print(os, n.b, 1, true);
        break;
      case expr::Op::kMul:
        print(os, n.a, 2, false);
        os << "*";
        print(os, n.b, 2, true);
        break;
      case expr::Op::kDiv:
        print(os, n.a, 2, false);
        os << "/";
        print(os, n.b, 2, true);
        break;
      case expr::Op::kNeg:
        os << "-";
        print(os, n.a, 3, true);
        break;
      default:
        OMX_REQUIRE(false, "unreachable code op");
    }
    if (parens) os << ')';
  }

 private:
  const expr::Pool& p_;
  const Interner& names_;
  Lang lang_;
};

}  // namespace

std::string to_code(const expr::Pool& pool, const Interner& names,
                    expr::ExprId id, Lang lang) {
  std::ostringstream os;
  CodePrinter(pool, names, lang).print(os, id, 0, false);
  return os.str();
}

std::string sanitize_identifier(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += c;
    } else {
      out += '_';
    }
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out = "v" + out;
  }
  return out;
}

}  // namespace omx::codegen
