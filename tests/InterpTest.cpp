//===- tests/InterpTest.cpp - Reference interpreter tests ------*- C++ -*-===//

#include "TestUtil.h"
#include "data/Datasets.h"
#include "frontend/Frontend.h"
#include "fuzz/RefEval.h"
#include "interp/Interp.h"
#include "ir/Builder.h"

#include <gtest/gtest.h>

using namespace dmll;
using namespace dmll::frontend;

namespace {

Value vec(std::initializer_list<double> Xs) {
  return Value::arrayOfDoubles(std::vector<double>(Xs));
}

/// Element-wise vector addition, the reduce the in-place path matches.
Val vecAdd(Val A, Val B) {
  return zipWith(A, B, [](Val X, Val Y) { return X + Y; });
}

/// 40 integer-valued doubles: float sums of them are exact in any order,
/// so every run must equal the reference bit for bit.
InputMap fortyXs() {
  std::vector<double> Xs;
  for (int I = 0; I < 40; ++I)
    Xs.push_back((I * 7) % 11 - 5);
  return {{"xs", Value::arrayOfDoubles(Xs)}};
}

/// \p P at 1 and 4 threads, chunked as finely as the chunk rule allows,
/// must equal the independent reference evaluator bit for bit.
void expectMatchesRef(const Program &P, const InputMap &In) {
  Value Ref = fuzz::refEval(P, In);
  EXPECT_TRUE(evalProgram(P, In).deepEquals(Ref, 0.0));
  for (unsigned Threads : {1u, 4u})
    EXPECT_TRUE(testutil::evalOk(P, In, Threads, 1).deepEquals(Ref, 0.0))
        << Threads << " threads";
}

} // namespace

TEST(InterpTest, MapReducePipeline) {
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Program P = B.build(sum(map(Xs, [](Val X) { return X * Val(2.0); })));
  Value Out = evalProgram(P, {{"xs", vec({1, 2, 3, 4})}});
  EXPECT_DOUBLE_EQ(Out.asFloat(), 20.0);
}

TEST(InterpTest, FilterKeepsOrder) {
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Program P = B.build(filter(Xs, [](Val X) { return X > Val(2.0); }));
  Value Out = evalProgram(P, {{"xs", vec({1, 5, 2, 7, 0})}});
  ASSERT_EQ(Out.arraySize(), 2u);
  EXPECT_DOUBLE_EQ(Out.at(0).asFloat(), 5.0);
  EXPECT_DOUBLE_EQ(Out.at(1).asFloat(), 7.0);
}

TEST(InterpTest, EmptyReduceIsZero) {
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Program P = B.build(sum(Xs));
  Value Out = evalProgram(P, {{"xs", vec({})}});
  EXPECT_DOUBLE_EQ(Out.asFloat(), 0.0);
}

TEST(InterpTest, MinIndexPrefersFirstOnTies) {
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Program P = B.build(minIndex(Xs));
  Value Out = evalProgram(P, {{"xs", vec({3, 1, 4, 1, 5})}});
  EXPECT_EQ(Out.asInt(), 1);
}

TEST(InterpTest, GroupByFirstOccurrenceOrder) {
  ProgramBuilder B;
  Val Xs = B.inVecI64("xs");
  Program P = B.build(groupBy(Xs, [](Val X) { return X % Val(int64_t(3)); }));
  Value Out = evalProgram(
      P, {{"xs", Value::arrayOfInts({5, 3, 7, 9, 2, 4})}});
  const Value &Keys = Out.strct()->Fields[0];
  const Value &Groups = Out.strct()->Fields[1];
  ASSERT_EQ(Keys.arraySize(), 3u);
  EXPECT_EQ(Keys.at(0).asInt(), 2); // 5 % 3 first
  EXPECT_EQ(Keys.at(1).asInt(), 0);
  EXPECT_EQ(Keys.at(2).asInt(), 1);
  EXPECT_EQ(Groups.at(0).arraySize(), 2u); // 5, 2
  EXPECT_EQ(Groups.at(1).arraySize(), 2u); // 3, 9
  EXPECT_EQ(Groups.at(2).arraySize(), 2u); // 7, 4
}

TEST(InterpTest, DenseBucketReduce) {
  ProgramBuilder B;
  Val Xs = B.inVecI64("xs");
  Val XsV = Xs;
  Program P = B.build(bucketReduceDense(
      Xs.len(), [&](Val I) { return XsV(I); },
      [](Val) { return Val(int64_t(1)); },
      [](Val A, Val C) { return A + C; }, Val(int64_t(4))));
  Value Out = evalProgram(P, {{"xs", Value::arrayOfInts({0, 1, 1, 3, 1})}});
  ASSERT_EQ(Out.arraySize(), 4u);
  EXPECT_EQ(Out.at(0).asInt(), 1);
  EXPECT_EQ(Out.at(1).asInt(), 3);
  EXPECT_EQ(Out.at(2).asInt(), 0); // empty bucket -> zero
  EXPECT_EQ(Out.at(3).asInt(), 1);
}

TEST(InterpTest, VectorSum) {
  ProgramBuilder B;
  Mat M = B.inMat("m");
  Program P = B.build(M.sumRowsVec());
  data::MatrixData MD;
  // Hand-rolled 2x3.
  MD.Rows = 2;
  MD.Cols = 3;
  MD.Data = {1, 2, 3, 10, 20, 30};
  Value Out = evalProgram(P, {{"m", MD.toValue()}});
  ASSERT_EQ(Out.arraySize(), 3u);
  EXPECT_DOUBLE_EQ(Out.at(0).asFloat(), 11.0);
  EXPECT_DOUBLE_EQ(Out.at(1).asFloat(), 22.0);
  EXPECT_DOUBLE_EQ(Out.at(2).asFloat(), 33.0);
}

TEST(InterpTest, LazySelectGuardsDivision) {
  ProgramBuilder B;
  Val N = B.inI64("n");
  Program P = B.build(
      vselect(N == Val(int64_t(0)), Val(int64_t(0)), Val(int64_t(10)) / N));
  Value Out = evalProgram(P, {{"n", Value(int64_t(0))}});
  EXPECT_EQ(Out.asInt(), 0);
}

TEST(InterpTest, FalseCondSkipsItsGeneratorInTheSharedScope) {
  // One loop, one index i: gen 0's cond xs(i) != 0 guards 100 / xs(i); gen
  // 1 reads xs(i) unconditionally. The parts share one scope per iteration,
  // and a false cond must still skip its generator's value.
  ProgramBuilder B;
  Val Xs = B.inVecI64("xs");
  SymRef I = freshSym("i", Type::i64());
  Val XsV = Xs, IV = I;
  auto Sum = [](ExprRef A, ExprRef C) { return binop(BinOpKind::Add, A, C); };
  Generator Quot, Total;
  Quot.Kind = Total.Kind = GenKind::Reduce;
  Quot.Cond = Func({I}, (XsV(IV) != Val(int64_t(0))).expr());
  Quot.Value = Func({I}, (Val(int64_t(100)) / XsV(IV)).expr());
  Quot.Reduce = binFunc("q", Type::i64(), Sum);
  Total.Cond = trueCond();
  Total.Value = Func({I}, XsV(IV).expr());
  Total.Reduce = binFunc("t", Type::i64(), Sum);
  Program P = B.build(multiloop(Xs.len().expr(), {Quot, Total}));
  std::vector<int64_t> Data(64, 5);
  Data[3] = Data[40] = 0;
  InputMap In{{"xs", Value::arrayOfInts(Data)}};
  for (unsigned Threads : {1u, 4u}) {
    EvalOptions EO;
    EO.Threads = Threads;
    EO.MinChunk = 4;
    ExecResult R = evalProgramRecover(P, In, EO);
    ASSERT_TRUE(R.ok()) << Threads << " threads: " << R.TrapMessage;
    EXPECT_EQ(R.Out.strct()->Fields[0].asInt(), 62 * 20);
    EXPECT_EQ(R.Out.strct()->Fields[1].asInt(), 62 * 5);
  }
}

TEST(InterpTest, FlattenConcatenates) {
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Val XsV = Xs;
  // flatMap(x => [x, x+1])
  Program P = B.build(flatMap(Xs, [&](Val X) {
    Val XV = X;
    return tabulate(Val(int64_t(2)), [&](Val I) { return XV + toF64(I); });
  }));
  Value Out = evalProgram(P, {{"xs", vec({10, 20})}});
  ASSERT_EQ(Out.arraySize(), 4u);
  EXPECT_DOUBLE_EQ(Out.at(1).asFloat(), 11.0);
  EXPECT_DOUBLE_EQ(Out.at(2).asFloat(), 20.0);
}

TEST(InterpTest, SharedLoopEvaluatesOnce) {
  // Both consumers read the same loop; memoization must make this cheap and
  // consistent. (Correctness check: the two reads agree.)
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Val Doubled = map(Xs, [](Val X) { return X * Val(2.0); });
  Val DV = Doubled;
  Program P = B.build(DV(Val(int64_t(0))) + DV(Val(int64_t(1))));
  Value Out = evalProgram(P, {{"xs", vec({3, 4})}});
  EXPECT_DOUBLE_EQ(Out.asFloat(), 14.0);
}

TEST(InterpTest, DistSqAndDot) {
  ProgramBuilder B;
  Val A = B.inVecF64("a");
  Val Bv = B.inVecF64("b");
  Program P1 = B.build(distSq(A, Bv));
  Value Out = evalProgram(
      P1, {{"a", vec({1, 2})}, {"b", vec({4, 6})}});
  EXPECT_DOUBLE_EQ(Out.asFloat(), 25.0);
}

//===----------------------------------------------------------------------===//
// Fast paths: in-place vector reductions, direct scalar reductions, one
// evaluation per shared operand. Each must be unobservable.
//===----------------------------------------------------------------------===//

TEST(InterpFastPath, VectorReduceOneAndTwoLevels) {
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Val XsV = Xs;
  Program One = B.build(sumRange(Xs.len(), [&](Val I) {
    return tabulate(Val(int64_t(4)),
                    [&](Val K) { return XsV(I) * toF64(K); });
  }));
  expectMatchesRef(One, fortyXs());
  Program Two = B.build(sumRange(Xs.len(), [&](Val I) {
    return tabulate(Val(int64_t(3)), [&](Val J) {
      return tabulate(Val(int64_t(2)),
                      [&](Val K) { return XsV(I) + toF64(J * K); });
    });
  }));
  expectMatchesRef(Two, fortyXs());
}

TEST(InterpFastPath, DenseAndHashBucketReduceWithVectorValues) {
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Val XsV = Xs;
  auto Key = [&](Val I) { return I % Val(int64_t(3)); };
  auto Row = [&](Val I) {
    return tabulate(Val(int64_t(5)), [&](Val K) { return XsV(I) - toF64(K); });
  };
  expectMatchesRef(B.build(bucketReduceDense(Xs.len(), Key, Row, vecAdd,
                                             Val(int64_t(4)))),
                   fortyXs());
  expectMatchesRef(B.build(bucketReduceHash(Xs.len(), Key, Row, vecAdd)),
                   fortyXs());
}

TEST(InterpFastPath, SharedFirstValueIsNotMutated) {
  // Every value is the input array itself, or one closed loop's result:
  // the accumulator starts as a handle someone else owns.
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Val XsV = Xs;
  Val Doubled = map(Xs, [](Val X) { return X * Val(2.0); });
  Program P = B.build(makeStruct(
      {{"input", Type::arrayOf(Type::f64())},
       {"closed", Type::arrayOf(Type::f64())}},
      {sumRange(Val(int64_t(6)), [&](Val) { return XsV; }).expr(),
       sumRange(Val(int64_t(6)), [&](Val) { return Doubled; }).expr()}));
  InputMap In = fortyXs();
  Value Before = Value::makeArray(*In.at("xs").array());
  expectMatchesRef(P, In);
  EXPECT_TRUE(In.at("xs").deepEquals(Before, 0.0));
}

TEST(InterpFastPath, SharedOperandAndDirectScalarReduces) {
  // sum_i (xs(i) - 1)^2 as one BinOp reading one node twice, plus min and
  // max reduces whose bodies are one BinOp of their parameters.
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Val XsV = Xs;
  auto D = [&](Val I) { return XsV(I) - Val(1.0); };
  auto ByOp = [&](BinOpKind Op) {
    return reduceRange(Xs.len(), D, [&](Val A, Val C) {
      return Val(binop(Op, A.expr(), C.expr()));
    });
  };
  Val SumSq = sumRange(Xs.len(), [&](Val I) {
    Val X = D(I);
    return X * X;
  });
  Program P = B.build(makeStruct(
      {{"sq", Type::f64()}, {"lo", Type::f64()}, {"hi", Type::f64()}},
      {SumSq.expr(), ByOp(BinOpKind::Min).expr(),
       ByOp(BinOpKind::Max).expr()}));
  expectMatchesRef(P, fortyXs());
}
