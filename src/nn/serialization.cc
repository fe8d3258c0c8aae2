#include "nn/serialization.h"

#include "common/file_io.h"

namespace atena {

namespace {
constexpr char kMagic[] = "ATENA-NN v3";
}  // namespace

void WriteMatrix(TokenWriter& out, const Matrix& m) {
  out.Int(m.rows()).Int(m.cols()).Nl();
  for (const double v : m.data()) out.F64(v);
  out.Nl();
}

Status ReadMatrixLike(TokenReader& in, const Matrix& expected,
                      const std::string& what, Matrix* out) {
  int rows = 0, cols = 0;
  ATENA_RETURN_IF_ERROR(in.Read(&rows, what.c_str()));
  ATENA_RETURN_IF_ERROR(in.Read(&cols, what.c_str()));
  if (rows != expected.rows() || cols != expected.cols()) {
    return Status::FailedPrecondition(
        what + " shape mismatch: file " + std::to_string(rows) + "x" +
        std::to_string(cols) + ", network " + expected.ShapeString());
  }
  Matrix m(rows, cols);
  for (double& v : m.data()) {
    ATENA_RETURN_IF_ERROR(in.ReadF64(&v, what.c_str()));
  }
  *out = std::move(m);
  return Status::OK();
}

void WriteParameters(TokenWriter& out, const std::vector<Parameter*>& params) {
  out.Int(params.size()).Nl();
  for (const Parameter* p : params) {
    out.String(p->name);
    WriteMatrix(out, p->value);
  }
}

Status SaveParameters(const std::vector<Parameter*>& params,
                      const std::string& path) {
  std::string payload;
  TokenWriter out(payload);
  WriteParameters(out, params);
  return WriteChecksummedFile(path, kMagic, payload);
}

Status ParseParametersInto(const std::vector<Parameter*>& params,
                           TokenReader& in, std::vector<Matrix>* staged) {
  int64_t count = 0;
  ATENA_RETURN_IF_ERROR(in.ReadCount(&count, "parameter"));
  if (static_cast<size_t>(count) != params.size()) {
    return Status::FailedPrecondition(
        "parameter count mismatch: file has " + std::to_string(count) +
        ", network has " + std::to_string(params.size()));
  }
  // Stage into a buffer first so a malformed block cannot leave the network
  // half-loaded.
  std::vector<Matrix> out(params.size());
  for (size_t k = 0; k < params.size(); ++k) {
    std::string name;
    ATENA_RETURN_IF_ERROR(in.ReadString(&name, "parameter name"));
    if (!name.empty() && !params[k]->name.empty() && name != params[k]->name) {
      return Status::FailedPrecondition(
          "parameter name mismatch at index " + std::to_string(k) +
          ": file '" + name + "', network '" + params[k]->name + "'");
    }
    ATENA_RETURN_IF_ERROR(ReadMatrixLike(
        in, params[k]->value, "parameter " + std::to_string(k), &out[k]));
  }
  *staged = std::move(out);
  return Status::OK();
}

Status LoadParameters(const std::vector<Parameter*>& params,
                      const std::string& path) {
  std::string payload;
  ATENA_RETURN_IF_ERROR(ReadChecksummedFile(path, kMagic, &payload));
  TokenReader in(payload, path);
  std::vector<Matrix> staged;
  ATENA_RETURN_IF_ERROR(ParseParametersInto(params, in, &staged));
  if (!in.AtEnd()) return in.Fail("trailing bytes after the parameters");
  for (size_t k = 0; k < staged.size(); ++k) {
    params[k]->value = std::move(staged[k]);
  }
  return Status::OK();
}

Status SaveParameters(const ParameterStore& store, const std::string& path) {
  return SaveParameters(store.All(), path);
}

Status LoadParameters(ParameterStore* store, const std::string& path) {
  return LoadParameters(store->All(), path);
}

}  // namespace atena
