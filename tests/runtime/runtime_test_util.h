// Shared fixtures for runtime tests: a small emulated cluster plus a
// registry of simple task bodies (echo / concat / int arithmetic / timed ops).
#ifndef TESTS_RUNTIME_RUNTIME_TEST_UTIL_H_
#define TESTS_RUNTIME_RUNTIME_TEST_UTIL_H_

#include <cstring>
#include <memory>

#include "src/common/logging.h"
#include "src/runtime/runtime.h"

namespace skadi {

inline Buffer I64Buffer(int64_t v) {
  BufferBuilder b;
  b.AppendI64(v);
  return b.Finish();
}

inline int64_t I64Of(const Buffer& buffer) {
  BufferReader r(buffer);
  return r.ReadI64();
}

// Registers the standard test functions on `registry`:
//   echo(x) -> x
//   concat(a, b) -> a+b
//   add_i64(a, b) -> int64 sum
//   inc_i64(a) -> a + 1
//   sum_all(xs...) -> int64 sum of all args
//   make_zeros [1 arg: int64 n] -> buffer of n zero bytes
//   fail_always -> kInternal
// Fixtures rebuild clusters against one long-lived registry, so a function
// may already be present; anything else is a hard failure.
inline void CheckRegistered(const Status& s) {
  SKADI_CHECK(s.ok() || s.code() == StatusCode::kAlreadyExists) << s.ToString();
}

inline void RegisterTestFunctions(FunctionRegistry& registry) {
  CheckRegistered(registry.Register("echo", [](TaskContext&, std::vector<Buffer>& args)
                                -> Result<std::vector<Buffer>> {
    if (args.size() != 1) {
      return Status::InvalidArgument("echo takes 1 arg");
    }
    return std::vector<Buffer>{args[0]};
  }));
  CheckRegistered(registry.Register("concat", [](TaskContext&, std::vector<Buffer>& args)
                                  -> Result<std::vector<Buffer>> {
    BufferBuilder b;
    for (const Buffer& a : args) {
      b.AppendBytes(a.data(), a.size());
    }
    return std::vector<Buffer>{b.Finish()};
  }));
  CheckRegistered(registry.Register("add_i64", [](TaskContext&, std::vector<Buffer>& args)
                                   -> Result<std::vector<Buffer>> {
    if (args.size() != 2) {
      return Status::InvalidArgument("add_i64 takes 2 args");
    }
    return std::vector<Buffer>{I64Buffer(I64Of(args[0]) + I64Of(args[1]))};
  }));
  CheckRegistered(registry.Register("inc_i64", [](TaskContext&, std::vector<Buffer>& args)
                                   -> Result<std::vector<Buffer>> {
    return std::vector<Buffer>{I64Buffer(I64Of(args[0]) + 1)};
  }));
  CheckRegistered(registry.Register("sum_all", [](TaskContext&, std::vector<Buffer>& args)
                                   -> Result<std::vector<Buffer>> {
    int64_t sum = 0;
    for (const Buffer& a : args) {
      sum += I64Of(a);
    }
    return std::vector<Buffer>{I64Buffer(sum)};
  }));
  CheckRegistered(registry.Register("make_zeros", [](TaskContext&, std::vector<Buffer>& args)
                                      -> Result<std::vector<Buffer>> {
    return std::vector<Buffer>{Buffer::Zeros(static_cast<size_t>(I64Of(args[0])))};
  }));
  CheckRegistered(registry.Register("fail_always", [](TaskContext&, std::vector<Buffer>&)
                                       -> Result<std::vector<Buffer>> {
    return Status::Internal("deliberate failure");
  }));
}

// Builds a TaskSpec for a one-return function call.
inline TaskSpec Call(const std::string& function, std::vector<TaskArg> args) {
  TaskSpec spec;
  spec.function = function;
  spec.args = std::move(args);
  spec.num_returns = 1;
  return spec;
}

// Call() with the body resolved from `registry`, as SkadiRuntime::Submit
// does; for tests that hand specs straight to a raylet.
inline TaskSpec CallWithBody(const FunctionRegistry& registry, const std::string& function,
                             std::vector<TaskArg> args) {
  TaskSpec spec = Call(function, std::move(args));
  Result<std::shared_ptr<const TaskFunction>> body = registry.Lookup(function);
  SKADI_CHECK(body.ok()) << body.status().ToString();
  spec.body = std::move(body).value();
  return spec;
}

}  // namespace skadi

#endif  // TESTS_RUNTIME_RUNTIME_TEST_UTIL_H_
