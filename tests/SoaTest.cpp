//===- tests/SoaTest.cpp - AoS-to-SoA + DFE unit tests ---------*- C++ -*-===//

#include "frontend/Frontend.h"
#include "interp/Interp.h"
#include "ir/Verifier.h"
#include "runtime/Executor.h"
#include "transform/Soa.h"

#include <gtest/gtest.h>

using namespace dmll;
using namespace dmll::frontend;

namespace {

TypeRef pointTy() {
  return Type::structOf(
      {{"x", Type::f64()}, {"y", Type::f64()}, {"tag", Type::i64()}});
}

Value pointsValue() {
  ArrayData Elems;
  for (int I = 0; I < 5; ++I)
    Elems.push_back(Value::makeStruct(
        {Value(double(I)), Value(double(10 * I)), Value(int64_t(I % 2))}));
  return Value::makeArray(std::move(Elems));
}

} // namespace

TEST(SoaTest, ConvertsAndDropsDeadFields) {
  ProgramBuilder B;
  Val Pts = B.in("pts", Type::arrayOf(pointTy()), LayoutHint::Partitioned);
  // Only x and y are read; tag is dead.
  Program P = B.build(sum(map(Pts, [](Val Pt) {
    return Pt.field("x") + Pt.field("y");
  })));
  SoaResult R = soaTransform(P);
  ASSERT_TRUE(R.changed());
  ASSERT_EQ(R.Converted.count("pts"), 1u);
  EXPECT_EQ(R.Converted["pts"],
            (std::vector<std::string>{"x", "y"})); // tag eliminated
  // The input type became a struct of arrays.
  const InputExpr *In = R.P.findInput("pts");
  ASSERT_NE(In, nullptr);
  EXPECT_TRUE(In->type()->isStruct());
  EXPECT_TRUE(In->type()->fieldType("x")->isArray());
  ASSERT_TRUE(verify(R.P).empty());

  // Semantics preserved through aosToSoa on the inputs.
  Value Aos = pointsValue();
  Value Before = evalProgram(P, {{"pts", Aos}});
  Value After = evalProgram(
      R.P, {{"pts", aosToSoa(Aos, *pointTy(), R.Converted["pts"])}});
  EXPECT_TRUE(Before.deepEquals(After, 1e-12));
}

TEST(SoaTest, WholeElementUseBlocksConversion) {
  ProgramBuilder B;
  Val Pts = B.in("pts", Type::arrayOf(pointTy()), LayoutHint::Partitioned);
  // The filter materializes whole elements: ineligible.
  Program P = B.build(filter(Pts, [](Val Pt) {
    return Pt.field("x") > Val(0.0);
  }));
  SoaResult R = soaTransform(P);
  EXPECT_FALSE(R.changed());
}

TEST(SoaTest, LengthUsesAreRewritten) {
  ProgramBuilder B;
  Val Pts = B.in("pts", Type::arrayOf(pointTy()), LayoutHint::Partitioned);
  Val PtsV = Pts;
  Program P = B.build(makeStruct(
      {{"n", Type::i64()}, {"s", Type::f64()}},
      {Pts.len().expr(),
       sum(map(PtsV, [](Val Pt) { return Pt.field("y"); })).expr()}));
  SoaResult R = soaTransform(P);
  ASSERT_TRUE(R.changed());
  Value Aos = pointsValue();
  Value Out = evalProgram(
      R.P, {{"pts", aosToSoa(Aos, *pointTy(), R.Converted["pts"])}});
  EXPECT_EQ(Out.strct()->Fields[0].asInt(), 5);
  EXPECT_DOUBLE_EQ(Out.strct()->Fields[1].asFloat(), 100.0);
}

TEST(SoaTest, ScalarInputsUntouched) {
  ProgramBuilder B;
  Val N = B.inI64("n");
  Program P = B.build(N + Val(int64_t(1)));
  SoaResult R = soaTransform(P);
  EXPECT_FALSE(R.changed());
}

TEST(SoaTest, AdaptInputsConvertsExactlyTheConvertedInputs) {
  ProgramBuilder B;
  Val Pts = B.in("pts", Type::arrayOf(pointTy()), LayoutHint::Partitioned);
  Val Qs = B.in("qs", Type::arrayOf(pointTy()), LayoutHint::Partitioned);
  auto X = [](Val Pt) { return Pt.field("x"); };
  Program P = B.build(sum(map(Pts, X)) + sum(map(Qs, X)) +
                      sum(B.inVecF64("ws")));
  CompileResult CR = compileProgram(P, CompileOptions());
  ASSERT_EQ(CR.SoaConverted.size(), 2u); // pts and qs, never ws
  // qs is converted but left unbound: adaptInputs skips it.
  InputMap In{{"pts", pointsValue()}, {"ws", Value::arrayOfDoubles({1.0})}};
  InputMap Adapted = adaptInputs(P, CR, In);
  ASSERT_EQ(Adapted.size(), 2u);
  EXPECT_TRUE(Adapted.at("pts").deepEquals(
      aosToSoa(In.at("pts"), *pointTy(), CR.SoaConverted.at("pts")), 0.0));
  EXPECT_EQ(Adapted.at("ws").array(), In.at("ws").array()); // same Value
}
