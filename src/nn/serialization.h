#ifndef ATENA_NN_SERIALIZATION_H_
#define ATENA_NN_SERIALIZATION_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/token_codec.h"
#include "nn/parameter.h"

namespace atena {

/// Saves a parameter list as an `ATENA-NN v3` weight file: the parameter
/// block below inside WriteChecksummedFile's CRC-32 frame
/// (common/file_io.h), so a truncated or bit-rotted file is rejected before
/// a single weight is parsed. The block uses the shared token spelling
/// (common/token_codec.h):
///
///   <param-count>
///   <name-length> <name> <rows> <cols>
///   <v00> <v01> ...
///   ...
///
/// with every value a 16-hex-digit IEEE-754 bit pattern, so weights
/// round-trip bit-exactly. Gradients are not saved; an unnamed parameter
/// has an empty name. Enables checkpointing and transferring a trained
/// policy to another dataset with the same schema (the paper's future-work
/// item of generalizing learning across datasets). The write is atomic, so
/// an interrupted save never corrupts an existing file.
Status SaveParameters(const std::vector<Parameter*>& params,
                      const std::string& path);

/// Writes the bare parameter block for `params` — the payload SaveParameters
/// frames. Container formats (the ATENA-CKPT training checkpoint,
/// rl/checkpoint.h) embed it directly.
void WriteParameters(TokenWriter& out, const std::vector<Parameter*>& params);

/// Reads a parameter block from `in` (a weight file's payload or a position
/// inside a container), validating count, names and shapes against
/// `params`, and stages the matrices into `*staged` in parameter order —
/// the network itself is never touched, so a failed parse can never leave
/// it half-loaded. Architecture mismatches are FailedPrecondition; anything
/// malformed is InvalidArgument.
Status ParseParametersInto(const std::vector<Parameter*>& params,
                           TokenReader& in, std::vector<Matrix>* staged);

/// `<rows> <cols>` followed by the values on one line — the spelling of
/// every matrix in a parameter block and of the checkpoint's Adam moments.
void WriteMatrix(TokenWriter& out, const Matrix& m);

/// Reads a matrix written by WriteMatrix whose shape must equal
/// `expected`'s (FailedPrecondition naming `what` otherwise).
Status ReadMatrixLike(TokenReader& in, const Matrix& expected,
                      const std::string& what, Matrix* out);

/// Loads a weight file saved by SaveParameters into `params`. Only
/// "ATENA-NN v3" is accepted; any other header (including the retired
/// "ATENA-NN v1" and "v2" text formats) is InvalidArgument, and a
/// truncated or corrupt file is IOError. The count and every shape must
/// match exactly, and names must match where both sides have one (mismatch
/// = FailedPrecondition). On any error the parameters are left unmodified.
Status LoadParameters(const std::vector<Parameter*>& params,
                      const std::string& path);

/// Store-level conveniences: checkpoint every parameter of a network's
/// ParameterStore in creation order.
Status SaveParameters(const ParameterStore& store, const std::string& path);
Status LoadParameters(ParameterStore* store, const std::string& path);

}  // namespace atena

#endif  // ATENA_NN_SERIALIZATION_H_
