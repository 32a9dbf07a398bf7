// IR construction, classification, printing and parser round-trips.
#include <gtest/gtest.h>

#include "src/ir/builder.h"
#include "src/ir/classify.h"
#include "src/ir/parser.h"
#include "src/ir/printer.h"

namespace clara {
namespace {

Module MakeTinyModule() {
  Module m;
  m.name = "tiny";
  InstallStandardPacketFields(m);
  StateVar counter;
  counter.name = "counter";
  counter.kind = StateKind::kScalar;
  counter.elem_type = Type::kI64;
  m.state.push_back(counter);
  StateVar table;
  table.name = "table";
  table.kind = StateKind::kArray;
  table.elem_type = Type::kI32;
  table.length = 256;
  m.state.push_back(table);
  StateVar flows;
  flows.name = "flows";
  flows.kind = StateKind::kMap;
  flows.key_bytes = 8;
  flows.value_bytes = 8;
  flows.capacity = 1024;
  m.state.push_back(flows);

  m.functions.emplace_back();
  Function& f = m.functions.back();
  f.name = "simple_action";
  IrBuilder b(m, f);
  uint32_t slot = b.AddSlot("x", Type::kI32);
  uint32_t entry = b.NewBlock("entry");
  uint32_t then_b = b.NewBlock("then");
  uint32_t exit_b = b.NewBlock("exit");
  b.SetInsertPoint(entry);
  Value src = b.LoadPacket(static_cast<uint32_t>(m.FindPacketField("ip.src")));
  Value sum = b.Binary(Opcode::kAdd, Type::kI32, src, Value::Const(7));
  b.StoreStack(slot, sum);
  Value x = b.LoadStack(slot);
  Value c = b.Compare(Opcode::kIcmpUgt, x, Value::Const(100));
  b.CondBr(c, then_b, exit_b);
  b.SetInsertPoint(then_b);
  Value cnt = b.LoadState(0, Type::kI64);
  b.StoreState(0, Type::kI64, b.Binary(Opcode::kAdd, Type::kI64, cnt, Value::Const(1)));
  Value idx = b.Binary(Opcode::kAnd, Type::kI32, x, Value::Const(255));
  b.LoadState(1, Type::kI32, idx);
  b.Call("send", {Value::Const(0)}, Type::kVoid);
  b.Br(exit_b);
  b.SetInsertPoint(exit_b);
  b.Ret();
  return m;
}

TEST(IrModule, PacketFieldEnumIndexesStandardTable) {
  Module m;
  InstallStandardPacketFields(m);
  ASSERT_EQ(m.packet_fields.size(), static_cast<size_t>(PacketField::kPktPayload) + 1);
  EXPECT_EQ(m.FindPacketField("eth.type"), static_cast<int>(PacketField::kEthType));
  EXPECT_EQ(m.FindPacketField("ip.dst"), static_cast<int>(PacketField::kIpDst));
  EXPECT_EQ(m.FindPacketField("tcp.csum"), static_cast<int>(PacketField::kTcpCsum));
  EXPECT_EQ(m.FindPacketField("pkt.ts"), static_cast<int>(PacketField::kPktTs));
  EXPECT_EQ(m.FindPacketField("pkt.payload"), static_cast<int>(PacketField::kPktPayload));
}

TEST(IrBuilder, AssignsDistinctRegisters) {
  Module m = MakeTinyModule();
  const Function& f = m.functions[0];
  std::set<uint32_t> regs;
  for (const auto& blk : f.blocks) {
    for (const auto& i : blk.instrs) {
      if (i.result != 0) {
        EXPECT_TRUE(regs.insert(i.result).second) << "duplicate %" << i.result;
      }
    }
  }
  EXPECT_GE(regs.size(), 7u);
}

TEST(IrClassify, SeparatesClasses) {
  Module m = MakeTinyModule();
  BlockCounts totals = CountFunction(m.functions[0]);
  EXPECT_GT(totals.compute, 0u);
  EXPECT_GT(totals.stateless_mem, 0u);  // stack + packet
  EXPECT_EQ(totals.stateful_mem, 3u);   // counter load+store, table load
  EXPECT_EQ(totals.api_calls, 1u);
  EXPECT_EQ(totals.control, 3u);        // condbr, br, ret
}

TEST(IrClassify, InstructionClassValues) {
  Instruction load;
  load.op = Opcode::kLoad;
  load.space = AddressSpace::kState;
  EXPECT_EQ(Classify(load), InstrClass::kStatefulMem);
  load.space = AddressSpace::kStack;
  EXPECT_EQ(Classify(load), InstrClass::kStatelessMem);
  Instruction add;
  add.op = Opcode::kAdd;
  EXPECT_EQ(Classify(add), InstrClass::kCompute);
  Instruction call;
  call.op = Opcode::kCall;
  EXPECT_EQ(Classify(call), InstrClass::kApiCall);
  Instruction ret;
  ret.op = Opcode::kRet;
  EXPECT_EQ(Classify(ret), InstrClass::kControl);
}

TEST(IrClassify, ArithmeticIntensity) {
  BlockCounts c;
  c.compute = 12;
  c.stateful_mem = 3;
  c.stateless_mem = 1;
  EXPECT_DOUBLE_EQ(ArithmeticIntensity(c), 3.0);
  BlockCounts no_mem;
  no_mem.compute = 5;
  EXPECT_DOUBLE_EQ(ArithmeticIntensity(no_mem), 5.0);
}

TEST(IrPrinter, ContainsKeyPieces) {
  Module m = MakeTinyModule();
  std::string text = ToString(m);
  EXPECT_NE(text.find("module tiny"), std::string::npos);
  EXPECT_NE(text.find("state counter : i64"), std::string::npos);
  EXPECT_NE(text.find("state table : i32[256]"), std::string::npos);
  EXPECT_NE(text.find("state flows : map<8,8,1024>"), std::string::npos);
  EXPECT_NE(text.find("load i32 pkt:ip.src"), std::string::npos);
  EXPECT_NE(text.find("call @send(0)"), std::string::npos);
  EXPECT_NE(text.find("condbr"), std::string::npos);
}

TEST(IrParser, RoundTripsPrinterOutput) {
  Module m = MakeTinyModule();
  std::string text = ToString(m);
  ParseResult r = ParseModule(text);
  ASSERT_TRUE(r.ok) << r.error;
  // Same structure after round trip.
  ASSERT_EQ(r.module.functions.size(), 1u);
  const Function& f0 = m.functions[0];
  const Function& f1 = r.module.functions[0];
  ASSERT_EQ(f0.blocks.size(), f1.blocks.size());
  for (size_t b = 0; b < f0.blocks.size(); ++b) {
    ASSERT_EQ(f0.blocks[b].instrs.size(), f1.blocks[b].instrs.size()) << "block " << b;
    for (size_t i = 0; i < f0.blocks[b].instrs.size(); ++i) {
      EXPECT_EQ(f0.blocks[b].instrs[i].op, f1.blocks[b].instrs[i].op);
    }
  }
  // Printing the parsed module reproduces the text exactly (fixed point).
  EXPECT_EQ(ToString(r.module), text);
}

TEST(IrParser, ReportsErrors) {
  EXPECT_FALSE(ParseModule("func @f {\n^e:\n  %1 = frobnicate i32 1, 2\n}\n").ok);
  EXPECT_FALSE(ParseModule("  %1 = add i32 1, 2\n").ok);
}

TEST(IrParser, ParsesHandWrittenModule) {
  const char* text =
      "module hand\n"
      "state acc : i32\n"
      "func @simple_action {\n"
      "  local t : i32\n"
      "^entry:\n"
      "  %1 = load i16 pkt:tcp.sport\n"
      "  %2 = zext i32 %1\n"
      "  store i32 %2, stack:t\n"
      "  %3 = load i32 state:acc\n"
      "  %4 = add i32 %3, %2\n"
      "  store i32 %4, state:acc\n"
      "  ret\n"
      "}\n";
  ParseResult r = ParseModule(text);
  ASSERT_TRUE(r.ok) << r.error;
  BlockCounts c = CountFunction(r.module.functions[0]);
  EXPECT_EQ(c.stateful_mem, 2u);
  EXPECT_EQ(c.compute, 2u);
}

TEST(StateVar, SizeBytes) {
  StateVar scalar;
  scalar.kind = StateKind::kScalar;
  scalar.elem_type = Type::kI64;
  EXPECT_EQ(scalar.SizeBytes(), 8u);
  StateVar arr;
  arr.kind = StateKind::kArray;
  arr.elem_type = Type::kI32;
  arr.length = 100;
  EXPECT_EQ(arr.SizeBytes(), 400u);
  StateVar map;
  map.kind = StateKind::kMap;
  map.key_bytes = 8;
  map.value_bytes = 16;
  map.capacity = 10;
  EXPECT_EQ(map.SizeBytes(), 240u);
}

}  // namespace
}  // namespace clara
