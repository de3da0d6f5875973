#include "service/sql_parser.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <optional>
#include <unordered_map>
#include <utility>

#include "window/shared_sort.h"

namespace hwf {
namespace service {
namespace {

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

enum class TokenKind { kIdent, kNumber, kSymbol, kEnd };

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;   // identifier spelling / number literal / symbol
  std::string upper;  // upper-cased identifier, for keyword matching
  size_t pos = 0;     // byte offset in the statement, for error messages
};

Status TokenError(const Token& token, const std::string& message) {
  return Status::InvalidArgument(
      "parse error at position " + std::to_string(token.pos) + " ('" +
      (token.kind == TokenKind::kEnd ? "<end>" : token.text) +
      "'): " + message);
}

StatusOr<std::vector<Token>> Tokenize(std::string_view sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();
  auto is_ident_start = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  };
  auto is_ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  while (i < n) {
    const char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token token;
    token.pos = i;
    if (is_ident_start(c)) {
      size_t j = i;
      while (j < n && is_ident(sql[j])) ++j;
      token.kind = TokenKind::kIdent;
      token.text = std::string(sql.substr(i, j - i));
      token.upper = token.text;
      for (char& ch : token.upper) {
        ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
      }
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '.' && i + 1 < n &&
                std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t j = i;
      bool seen_dot = false;
      while (j < n && (std::isdigit(static_cast<unsigned char>(sql[j])) ||
                       (sql[j] == '.' && !seen_dot))) {
        seen_dot = seen_dot || sql[j] == '.';
        ++j;
      }
      token.kind = TokenKind::kNumber;
      token.text = std::string(sql.substr(i, j - i));
      i = j;
    } else if (c == '(' || c == ')' || c == ',' || c == '*' || c == ';') {
      token.kind = TokenKind::kSymbol;
      token.text = std::string(1, c);
      ++i;
    } else {
      token.kind = TokenKind::kSymbol;
      token.text = std::string(1, c);
      return TokenError(token, "unexpected character");
    }
    tokens.push_back(std::move(token));
  }
  Token end;
  end.pos = n;
  tokens.push_back(end);
  return tokens;
}

// ---------------------------------------------------------------------------
// Recursive-descent parser
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<ParsedStatement> Parse() {
    ParsedStatement statement;
    if (Status s = ExpectKeyword("SELECT"); !s.ok()) return s;
    for (;;) {
      StatusOr<RawCall> call = ParseCall();
      if (!call.ok()) return call.status();
      statement.items.push_back(std::move(*call));
      if (!AcceptSymbol(",")) break;
    }
    if (Status s = ExpectKeyword("FROM"); !s.ok()) return s;
    StatusOr<std::string> table = ExpectIdent("table name");
    if (!table.ok()) return table.status();
    statement.table_name = std::move(*table);
    AcceptSymbol(";");
    if (Peek().kind != TokenKind::kEnd) {
      return TokenError(Peek(), "trailing input after statement");
    }
    return statement;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = index_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[index_++]; }

  bool PeekKeyword(const char* keyword, size_t ahead = 0) const {
    const Token& token = Peek(ahead);
    return token.kind == TokenKind::kIdent && token.upper == keyword;
  }
  bool AcceptKeyword(const char* keyword) {
    if (!PeekKeyword(keyword)) return false;
    Advance();
    return true;
  }
  Status ExpectKeyword(const char* keyword) {
    if (!AcceptKeyword(keyword)) {
      return TokenError(Peek(), std::string("expected ") + keyword);
    }
    return Status::OK();
  }
  bool AcceptSymbol(const char* symbol) {
    const Token& token = Peek();
    if (token.kind != TokenKind::kSymbol || token.text != symbol) return false;
    Advance();
    return true;
  }
  Status ExpectSymbol(const char* symbol) {
    if (!AcceptSymbol(symbol)) {
      return TokenError(Peek(), std::string("expected '") + symbol + "'");
    }
    return Status::OK();
  }
  StatusOr<std::string> ExpectIdent(const char* what) {
    const Token& token = Peek();
    if (token.kind != TokenKind::kIdent) {
      return TokenError(token, std::string("expected ") + what);
    }
    Advance();
    return token.text;
  }

  StatusOr<RawArg> ParseNumber() {
    const Token& token = Advance();
    RawArg arg;
    arg.is_number = true;
    arg.number = std::strtod(token.text.c_str(), nullptr);
    if (token.text.find('.') == std::string::npos) {
      arg.is_integer = true;
      arg.integer = std::strtoll(token.text.c_str(), nullptr, 10);
    }
    return arg;
  }

  /// keys := col [ASC|DESC] [NULLS FIRST|LAST] (',' ...)*
  Status ParseSortKeys(std::vector<RawSortKey>* keys) {
    for (;;) {
      RawSortKey key;
      StatusOr<std::string> column = ExpectIdent("ORDER BY column");
      if (!column.ok()) return column.status();
      key.column = std::move(*column);
      if (AcceptKeyword("DESC")) {
        key.ascending = false;
      } else {
        AcceptKeyword("ASC");
      }
      // PostgreSQL default: NULLS LAST for ASC, NULLS FIRST for DESC.
      key.nulls_first = !key.ascending;
      if (AcceptKeyword("NULLS")) {
        if (AcceptKeyword("FIRST")) {
          key.nulls_first = true;
        } else if (AcceptKeyword("LAST")) {
          key.nulls_first = false;
        } else {
          return TokenError(Peek(), "expected FIRST or LAST after NULLS");
        }
      }
      keys->push_back(std::move(key));
      if (!AcceptSymbol(",")) return Status::OK();
    }
  }

  StatusOr<RawFrameBound> ParseFrameBound() {
    RawFrameBound bound;
    if (AcceptKeyword("UNBOUNDED")) {
      if (AcceptKeyword("PRECEDING")) {
        bound.kind = FrameBoundKind::kUnboundedPreceding;
      } else if (AcceptKeyword("FOLLOWING")) {
        bound.kind = FrameBoundKind::kUnboundedFollowing;
      } else {
        return TokenError(Peek(),
                          "expected PRECEDING or FOLLOWING after UNBOUNDED");
      }
      return bound;
    }
    if (AcceptKeyword("CURRENT")) {
      if (Status s = ExpectKeyword("ROW"); !s.ok()) return s;
      bound.kind = FrameBoundKind::kCurrentRow;
      return bound;
    }
    if (Peek().kind == TokenKind::kNumber) {
      StatusOr<RawArg> offset = ParseNumber();
      if (!offset.ok()) return offset.status();
      if (!offset->is_integer) {
        return TokenError(Peek(), "frame offsets must be integers");
      }
      bound.offset = offset->integer;
    } else if (Peek().kind == TokenKind::kIdent &&
               !PeekKeyword("PRECEDING") && !PeekKeyword("FOLLOWING")) {
      StatusOr<std::string> column = ExpectIdent("frame offset column");
      if (!column.ok()) return column.status();
      bound.offset_column = std::move(*column);
    } else {
      return TokenError(Peek(), "expected a frame bound");
    }
    if (AcceptKeyword("PRECEDING")) {
      bound.kind = FrameBoundKind::kPreceding;
    } else if (AcceptKeyword("FOLLOWING")) {
      bound.kind = FrameBoundKind::kFollowing;
    } else {
      return TokenError(Peek(), "expected PRECEDING or FOLLOWING");
    }
    return bound;
  }

  Status ParseWindow(RawWindow* window) {
    if (AcceptKeyword("PARTITION")) {
      if (Status s = ExpectKeyword("BY"); !s.ok()) return s;
      for (;;) {
        StatusOr<std::string> column = ExpectIdent("PARTITION BY column");
        if (!column.ok()) return column.status();
        window->partition_by.push_back(std::move(*column));
        if (!AcceptSymbol(",")) break;
      }
    }
    if (AcceptKeyword("ORDER")) {
      if (Status s = ExpectKeyword("BY"); !s.ok()) return s;
      if (Status s = ParseSortKeys(&window->order_by); !s.ok()) return s;
    }
    if (AcceptKeyword("ROWS")) {
      window->mode = FrameMode::kRows;
    } else if (AcceptKeyword("RANGE")) {
      window->mode = FrameMode::kRange;
    } else if (AcceptKeyword("GROUPS")) {
      window->mode = FrameMode::kGroups;
    } else {
      return Status::OK();  // no frame clause: SQL default (bound later)
    }
    window->has_frame = true;
    if (AcceptKeyword("BETWEEN")) {
      StatusOr<RawFrameBound> begin = ParseFrameBound();
      if (!begin.ok()) return begin.status();
      window->begin = std::move(*begin);
      if (Status s = ExpectKeyword("AND"); !s.ok()) return s;
      StatusOr<RawFrameBound> end = ParseFrameBound();
      if (!end.ok()) return end.status();
      window->end = std::move(*end);
    } else {
      // Single-bound shorthand: <bound> means BETWEEN <bound> AND CURRENT
      // ROW (SQL:2011 6.10).
      StatusOr<RawFrameBound> begin = ParseFrameBound();
      if (!begin.ok()) return begin.status();
      window->begin = std::move(*begin);
      window->end.kind = FrameBoundKind::kCurrentRow;
    }
    if (AcceptKeyword("EXCLUDE")) {
      if (AcceptKeyword("NO")) {
        if (Status s = ExpectKeyword("OTHERS"); !s.ok()) return s;
        window->exclusion = FrameExclusion::kNoOthers;
      } else if (AcceptKeyword("CURRENT")) {
        if (Status s = ExpectKeyword("ROW"); !s.ok()) return s;
        window->exclusion = FrameExclusion::kCurrentRow;
      } else if (AcceptKeyword("GROUP")) {
        window->exclusion = FrameExclusion::kGroup;
      } else if (AcceptKeyword("TIES")) {
        window->exclusion = FrameExclusion::kTies;
      } else {
        return TokenError(Peek(),
                          "expected NO OTHERS, CURRENT ROW, GROUP or TIES");
      }
    }
    return Status::OK();
  }

  StatusOr<RawCall> ParseCall() {
    RawCall call;
    StatusOr<std::string> name = ExpectIdent("function name");
    if (!name.ok()) return name.status();
    call.function = std::move(*name);
    for (char& c : call.function) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (Status s = ExpectSymbol("("); !s.ok()) return s;
    if (AcceptSymbol("*")) {
      call.star = true;
    } else if (!AcceptSymbol(")")) {
      call.distinct = AcceptKeyword("DISTINCT");
      // Arguments, unless the parens hold only an inline ORDER BY
      // (e.g. rank(ORDER BY price DESC), the paper's Fig. 9 syntax).
      if (!PeekKeyword("ORDER")) {
        for (;;) {
          if (Peek().kind == TokenKind::kNumber) {
            StatusOr<RawArg> arg = ParseNumber();
            if (!arg.ok()) return arg.status();
            call.args.push_back(std::move(*arg));
          } else {
            StatusOr<std::string> column = ExpectIdent("function argument");
            if (!column.ok()) return column.status();
            RawArg arg;
            arg.column = std::move(*column);
            call.args.push_back(std::move(arg));
          }
          if (!AcceptSymbol(",")) break;
        }
      }
      if (AcceptKeyword("ORDER")) {
        if (Status s = ExpectKeyword("BY"); !s.ok()) return s;
        if (Status s = ParseSortKeys(&call.order_by); !s.ok()) return s;
      }
      if (Status s = ExpectSymbol(")"); !s.ok()) return s;
    }
    if (call.star) {
      if (Status s = ExpectSymbol(")"); !s.ok()) return s;
    }
    if (AcceptKeyword("WITHIN")) {
      if (Status s = ExpectKeyword("GROUP"); !s.ok()) return s;
      if (Status s = ExpectSymbol("("); !s.ok()) return s;
      if (Status s = ExpectKeyword("ORDER"); !s.ok()) return s;
      if (Status s = ExpectKeyword("BY"); !s.ok()) return s;
      if (!call.order_by.empty()) {
        return TokenError(Peek(),
                          "both inline ORDER BY and WITHIN GROUP given");
      }
      if (Status s = ParseSortKeys(&call.order_by); !s.ok()) return s;
      if (Status s = ExpectSymbol(")"); !s.ok()) return s;
    }
    if (AcceptKeyword("FILTER")) {
      if (Status s = ExpectSymbol("("); !s.ok()) return s;
      if (Status s = ExpectKeyword("WHERE"); !s.ok()) return s;
      StatusOr<std::string> column = ExpectIdent("FILTER column");
      if (!column.ok()) return column.status();
      call.filter_column = std::move(*column);
      if (Status s = ExpectSymbol(")"); !s.ok()) return s;
    }
    if (AcceptKeyword("IGNORE")) {
      if (Status s = ExpectKeyword("NULLS"); !s.ok()) return s;
      call.ignore_nulls = true;
    } else if (AcceptKeyword("RESPECT")) {
      if (Status s = ExpectKeyword("NULLS"); !s.ok()) return s;
    }
    if (Status s = ExpectKeyword("OVER"); !s.ok()) return s;
    if (Status s = ExpectSymbol("("); !s.ok()) return s;
    if (Status s = ParseWindow(&call.window); !s.ok()) return s;
    if (Status s = ExpectSymbol(")"); !s.ok()) return s;
    if (AcceptKeyword("AS")) {
      StatusOr<std::string> alias = ExpectIdent("alias");
      if (!alias.ok()) return alias.status();
      call.alias = std::move(*alias);
    }
    return call;
  }

  std::vector<Token> tokens_;
  size_t index_ = 0;
};

// ---------------------------------------------------------------------------
// Binding
// ---------------------------------------------------------------------------

struct FunctionSignature {
  WindowFunctionKind kind = WindowFunctionKind::kCountStar;
  WindowFunctionKind distinct_kind = WindowFunctionKind::kCountStar;
  bool has_distinct = false;
  int column_args = 0;     // leading column arguments
  int number_args = 0;     // then numeric arguments (max, optional)
  bool number_required = false;
  bool number_is_fraction = false;  // fraction vs integer param
};

std::optional<FunctionSignature> LookupFunction(const std::string& name) {
  using K = WindowFunctionKind;
  if (name == "count") {
    return FunctionSignature{K::kCount, K::kCountDistinct, true, 1, 0};
  }
  if (name == "sum") {
    return FunctionSignature{K::kSum, K::kSumDistinct, true, 1, 0};
  }
  if (name == "avg") {
    return FunctionSignature{K::kAvg, K::kAvgDistinct, true, 1, 0};
  }
  if (name == "min") {
    return FunctionSignature{K::kMin, K::kMinDistinct, true, 1, 0};
  }
  if (name == "max") {
    return FunctionSignature{K::kMax, K::kMaxDistinct, true, 1, 0};
  }
  if (name == "rank") return FunctionSignature{K::kRank, K::kRank, false, 0, 0};
  if (name == "dense_rank") {
    return FunctionSignature{K::kDenseRank, K::kDenseRank, false, 0, 0};
  }
  if (name == "row_number") {
    return FunctionSignature{K::kRowNumber, K::kRowNumber, false, 0, 0};
  }
  if (name == "percent_rank") {
    return FunctionSignature{K::kPercentRank, K::kPercentRank, false, 0, 0};
  }
  if (name == "cume_dist") {
    return FunctionSignature{K::kCumeDist, K::kCumeDist, false, 0, 0};
  }
  if (name == "ntile") {
    return FunctionSignature{K::kNtile, K::kNtile, false, 0, 1, true, false};
  }
  if (name == "percentile_disc") {
    return FunctionSignature{K::kPercentileDisc, K::kPercentileDisc, false,
                             0,  1, true, true};
  }
  if (name == "percentile_cont") {
    return FunctionSignature{K::kPercentileCont, K::kPercentileCont, false,
                             0,  1, true, true};
  }
  if (name == "median") {
    return FunctionSignature{K::kMedian, K::kMedian, false, 1, 0};
  }
  if (name == "first_value") {
    return FunctionSignature{K::kFirstValue, K::kFirstValue, false, 1, 0};
  }
  if (name == "last_value") {
    return FunctionSignature{K::kLastValue, K::kLastValue, false, 1, 0};
  }
  if (name == "nth_value") {
    return FunctionSignature{K::kNthValue, K::kNthValue, false,
                             1,  1,        true,         false};
  }
  if (name == "lead") {
    return FunctionSignature{K::kLead, K::kLead, false, 1, 1, false, false};
  }
  if (name == "lag") {
    return FunctionSignature{K::kLag, K::kLag, false, 1, 1, false, false};
  }
  if (name == "mode") {
    return FunctionSignature{K::kMode, K::kMode, false, 1, 0};
  }
  return std::nullopt;
}

StatusOr<size_t> BindColumn(const Table& table, const std::string& name) {
  return table.ColumnIndex(name);
}

StatusOr<std::vector<SortKey>> BindSortKeys(
    const Table& table, const std::vector<RawSortKey>& raw) {
  std::vector<SortKey> keys;
  keys.reserve(raw.size());
  for (const RawSortKey& r : raw) {
    StatusOr<size_t> column = BindColumn(table, r.column);
    if (!column.ok()) return column.status();
    keys.push_back(SortKey{*column, r.ascending, r.nulls_first});
  }
  return keys;
}

StatusOr<FrameBound> BindFrameBound(const Table& table,
                                    const RawFrameBound& raw) {
  FrameBound bound;
  bound.kind = raw.kind;
  bound.offset = raw.offset;
  if (!raw.offset_column.empty()) {
    StatusOr<size_t> column = BindColumn(table, raw.offset_column);
    if (!column.ok()) return column.status();
    bound.offset_column = *column;
  }
  return bound;
}

StatusOr<WindowSpec> BindWindow(const Table& table, const RawWindow& raw) {
  WindowSpec spec;
  for (const std::string& name : raw.partition_by) {
    StatusOr<size_t> column = BindColumn(table, name);
    if (!column.ok()) return column.status();
    spec.partition_by.push_back(*column);
  }
  StatusOr<std::vector<SortKey>> order = BindSortKeys(table, raw.order_by);
  if (!order.ok()) return order.status();
  spec.order_by = std::move(*order);
  if (raw.has_frame) {
    spec.frame.mode = raw.mode;
    StatusOr<FrameBound> begin = BindFrameBound(table, raw.begin);
    if (!begin.ok()) return begin.status();
    spec.frame.begin = *begin;
    StatusOr<FrameBound> end = BindFrameBound(table, raw.end);
    if (!end.ok()) return end.status();
    spec.frame.end = *end;
    spec.frame.exclusion = raw.exclusion;
  } else if (spec.order_by.empty()) {
    // SQL default without ORDER BY: the whole partition.
    spec.frame.mode = FrameMode::kRows;
    spec.frame.begin = FrameBound::UnboundedPreceding();
    spec.frame.end = FrameBound::UnboundedFollowing();
  } else {
    // SQL default with ORDER BY: up to and including the current peer
    // group (RANGE UNBOUNDED PRECEDING, expressed in GROUPS mode).
    spec.frame.mode = FrameMode::kGroups;
    spec.frame.begin = FrameBound::UnboundedPreceding();
    spec.frame.end = FrameBound::CurrentRow();
  }
  return spec;
}

StatusOr<WindowFunctionCall> BindCall(const Table& table, const RawCall& raw) {
  WindowFunctionCall call;
  if (raw.star) {
    if (raw.function != "count") {
      return Status::InvalidArgument("only count(*) accepts '*', not " +
                                     raw.function);
    }
    call.kind = WindowFunctionKind::kCountStar;
  } else {
    std::optional<FunctionSignature> sig = LookupFunction(raw.function);
    if (!sig.has_value()) {
      return Status::InvalidArgument("unknown window function '" +
                                     raw.function + "'");
    }
    if (raw.distinct && !sig->has_distinct) {
      return Status::InvalidArgument("DISTINCT is not supported for " +
                                     raw.function);
    }
    call.kind = raw.distinct ? sig->distinct_kind : sig->kind;

    // Split the positional arguments: numeric literal first for the
    // fraction-style functions (percentile_disc(0.5 ...)), columns first
    // otherwise (lead(price, 2)).
    std::vector<const RawArg*> columns;
    std::vector<const RawArg*> numbers;
    for (const RawArg& arg : raw.args) {
      (arg.is_number ? numbers : columns).push_back(&arg);
    }
    if (static_cast<int>(columns.size()) > sig->column_args) {
      return Status::InvalidArgument(raw.function + " takes at most " +
                                     std::to_string(sig->column_args) +
                                     " column argument(s)");
    }
    if (static_cast<int>(numbers.size()) > sig->number_args) {
      return Status::InvalidArgument(raw.function + " takes at most " +
                                     std::to_string(sig->number_args) +
                                     " numeric argument(s)");
    }
    if (sig->number_required && numbers.empty()) {
      return Status::InvalidArgument(raw.function +
                                     " requires a numeric argument");
    }
    if (sig->column_args == 1 && columns.empty() &&
        raw.order_by.empty() &&
        (call.kind == WindowFunctionKind::kPercentileDisc ||
         call.kind == WindowFunctionKind::kPercentileCont)) {
      return Status::InvalidArgument(
          raw.function + " requires WITHIN GROUP (ORDER BY ...) or an "
                         "inline ORDER BY");
    }
    if (sig->column_args == 1 && columns.empty() && raw.order_by.empty() &&
        call.kind != WindowFunctionKind::kPercentileDisc &&
        call.kind != WindowFunctionKind::kPercentileCont) {
      return Status::InvalidArgument(raw.function +
                                     " requires a column argument");
    }
    if (!columns.empty()) {
      StatusOr<size_t> column = BindColumn(table, columns[0]->column);
      if (!column.ok()) return column.status();
      call.argument = *column;
    }
    if (!numbers.empty()) {
      if (sig->number_is_fraction) {
        call.fraction = numbers[0]->number;
      } else {
        if (!numbers[0]->is_integer) {
          return Status::InvalidArgument(raw.function +
                                         " takes an integer argument");
        }
        call.param = numbers[0]->integer;
      }
    }
  }

  StatusOr<std::vector<SortKey>> order = BindSortKeys(table, raw.order_by);
  if (!order.ok()) return order.status();
  call.order_by = std::move(*order);
  // Percentiles select the value of the ordering expression: WITHIN GROUP
  // (ORDER BY col) makes col the argument when none was given explicitly.
  if ((call.kind == WindowFunctionKind::kPercentileDisc ||
       call.kind == WindowFunctionKind::kPercentileCont) &&
      !call.argument.has_value()) {
    if (call.order_by.size() != 1) {
      return Status::InvalidArgument(
          raw.function + " requires exactly one ordering column");
    }
    call.argument = call.order_by[0].column;
  }
  if (!raw.filter_column.empty()) {
    StatusOr<size_t> column = BindColumn(table, raw.filter_column);
    if (!column.ok()) return column.status();
    call.filter = *column;
  }
  call.ignore_nulls = raw.ignore_nulls;
  return call;
}

/// SQL frame-bound combinations the standard forbids beyond the two
/// UNBOUNDED cases ValidateWindowSpec checks: a frame that starts at the
/// current row cannot end before it, and one that ends at the current row
/// cannot start after it (MariaDB's Window_frame::check_frame_bounds). The
/// library API still evaluates such frames, as empty ones; only SQL text
/// rejects them.
Status CheckFrameBoundOrder(const FrameSpec& frame) {
  if (frame.begin.kind == FrameBoundKind::kCurrentRow &&
      frame.end.kind == FrameBoundKind::kPreceding) {
    return Status::InvalidArgument(
        "frame starting at CURRENT ROW cannot end with PRECEDING");
  }
  if (frame.end.kind == FrameBoundKind::kCurrentRow &&
      frame.begin.kind == FrameBoundKind::kFollowing) {
    return Status::InvalidArgument(
        "frame ending at CURRENT ROW cannot start with FOLLOWING");
  }
  return Status::OK();
}

}  // namespace

StatusOr<ParsedStatement> ParseStatement(std::string_view sql) {
  StatusOr<std::vector<Token>> tokens = Tokenize(sql);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(*tokens));
  return parser.Parse();
}

StatusOr<PlannedQuery> BindStatement(const ParsedStatement& statement,
                                     const Table& table) {
  PlannedQuery plan;
  plan.table_name = statement.table_name;
  std::unordered_map<WindowSpec, size_t, WindowSpecHash> group_index;
  for (size_t slot = 0; slot < statement.items.size(); ++slot) {
    const RawCall& raw = statement.items[slot];
    StatusOr<WindowSpec> spec = BindWindow(table, raw.window);
    if (!spec.ok()) return spec.status();
    StatusOr<WindowFunctionCall> call = BindCall(table, raw);
    if (!call.ok()) return call.status();
    if (Status s = ValidateWindowSpec(table, *spec); !s.ok()) return s;
    if (Status s = CheckFrameBoundOrder(spec->frame); !s.ok()) return s;
    if (Status s = ValidateWindowCall(table, *spec, *call); !s.ok()) return s;
    plan.output_names.push_back(raw.alias.empty() ? raw.function : raw.alias);
    // Group by the spec's canonical structural equality (window/spec.h):
    // one definition of "same spec", shared with the executor.
    auto [it, inserted] = group_index.try_emplace(*spec, plan.groups.size());
    if (inserted) {
      plan.groups.emplace_back();
      plan.groups.back().spec = std::move(*spec);
    }
    PlannedGroup& group = plan.groups[it->second];
    group.calls.push_back(std::move(*call));
    group.output_slots.push_back(slot);
  }
  if (plan.groups.empty()) {
    return Status::InvalidArgument("statement has no window function calls");
  }
  // Emit the groups in shared-sort execution order (producers of each sort
  // chain first), so the executor's sharing plan and any consumer that walks
  // the groups in sequence see producer sorts before the specs they cover.
  std::vector<const WindowSpec*> specs;
  specs.reserve(plan.groups.size());
  for (const PlannedGroup& group : plan.groups) specs.push_back(&group.spec);
  const SharedSortPlan shared = PlanSharedSorts(specs);
  if (!std::is_sorted(shared.sequence.begin(), shared.sequence.end())) {
    std::vector<PlannedGroup> ordered;
    ordered.reserve(plan.groups.size());
    for (size_t index : shared.sequence) {
      ordered.push_back(std::move(plan.groups[index]));
    }
    plan.groups = std::move(ordered);
  }
  return plan;
}

StatusOr<PlannedQuery> PlanQuery(std::string_view sql, const Table& table) {
  StatusOr<ParsedStatement> statement = ParseStatement(sql);
  if (!statement.ok()) return statement.status();
  return BindStatement(*statement, table);
}

}  // namespace service
}  // namespace hwf
