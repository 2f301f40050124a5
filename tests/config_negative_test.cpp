// Negative matrix over the configuration parse path: malformed XML, input
// specs, workflows, engine parameters, and fault specs must all surface as
// typed papar::Error subclasses with useful context — never an assert,
// crash, or silently-wrong default.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/engine.hpp"
#include "core/workflow.hpp"
#include "mpsim/fault.hpp"
#include "schema/input_config.hpp"
#include "util/parse.hpp"
#include "xml/xml.hpp"

namespace papar {
namespace {

// -- XML ----------------------------------------------------------------------

TEST(XmlNegative, StructuralErrorsAreParseErrors) {
  EXPECT_THROW(xml::parse(""), ConfigError);
  EXPECT_THROW(xml::parse("<a>"), ConfigError);                  // unterminated
  EXPECT_THROW(xml::parse("<a><b></a>"), ConfigError);           // mismatched close
  EXPECT_THROW(xml::parse("<a></a><b/>"), ConfigError);          // trailing content
  EXPECT_THROW(xml::parse("<a x=\"1>"), ConfigError);            // unterminated attr
  EXPECT_THROW(xml::parse("<a x=1/>"), ConfigError);             // unquoted attr
  EXPECT_THROW(xml::parse("<a><!-- no end"), ConfigError);       // unterminated comment
  EXPECT_THROW(xml::parse("<1bad/>"), ConfigError);              // bad name start
}

TEST(XmlNegative, EntityErrorsAreParseErrors) {
  EXPECT_THROW(xml::parse("<a>&bogus;</a>"), ConfigError);
  EXPECT_THROW(xml::parse("<a>&unterminated</a>"), ConfigError);
  EXPECT_THROW(xml::parse("<a>&#;</a>"), ConfigError);
  EXPECT_THROW(xml::parse("<a>&#xZZ;</a>"), ConfigError);
  EXPECT_THROW(xml::parse("<a>&#12junk;</a>"), ConfigError);     // trailing garbage
  EXPECT_THROW(xml::parse("<a>&#x110000;</a>"), ConfigError);    // beyond Unicode
  EXPECT_NO_THROW(xml::parse("<a>&#65;&lt;&amp;</a>"));
}

TEST(XmlNegative, PathologicalNestingIsRejectedNotStackOverflow) {
  std::string deep;
  for (int i = 0; i < 400; ++i) deep += "<n>";
  deep += "x";
  for (int i = 0; i < 400; ++i) deep += "</n>";
  try {
    xml::parse(deep);
    FAIL() << "expected ParseError";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos);
  }
  // 200 levels is legal.
  std::string ok;
  for (int i = 0; i < 200; ++i) ok += "<n>";
  for (int i = 0; i < 200; ++i) ok += "</n>";
  EXPECT_NO_THROW(xml::parse(ok));
}

TEST(XmlNegative, ParseFileNamesTheFile) {
  EXPECT_THROW(xml::parse_file("/no/such/config.xml"), ConfigError);
  const std::string path = testing::TempDir() + "/papar_bad.xml";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("<a><b></a>", f);
    std::fclose(f);
  }
  try {
    xml::parse_file(path);
    FAIL() << "expected ParseError";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

// -- Input specs --------------------------------------------------------------

TEST(InputSpecNegative, MalformedSpecsAreConfigErrors) {
  auto spec_with = [](const std::string& body) {
    return "<input id=\"t\" name=\"t\">" + body + "</input>";
  };
  // Unknown format.
  EXPECT_THROW(schema::parse_input_spec(xml::parse(spec_with(
                   "<input_format>parquet</input_format>"
                   "<element><value name=\"a\" type=\"integer\"/></element>"))),
               ConfigError);
  // Bad field type.
  EXPECT_THROW(schema::parse_input_spec(xml::parse(spec_with(
                   "<input_format>binary</input_format>"
                   "<element><value name=\"a\" type=\"quaternion\"/></element>"))),
               ConfigError);
  // Bad start_position.
  EXPECT_THROW(schema::parse_input_spec(xml::parse(spec_with(
                   "<input_format>binary</input_format>"
                   "<start_position>soon</start_position>"
                   "<element><value name=\"a\" type=\"integer\"/></element>"))),
               ConfigError);
  // No fields at all.
  EXPECT_THROW(schema::parse_input_spec(xml::parse(spec_with(
                   "<input_format>binary</input_format><element></element>"))),
               ConfigError);
  // Text field without delimiter.
  EXPECT_THROW(schema::parse_input_spec(xml::parse(spec_with(
                   "<input_format>text</input_format>"
                   "<element><value name=\"a\" type=\"String\"/></element>"))),
               ConfigError);
  // Delimiter before any value.
  EXPECT_THROW(schema::parse_input_spec(xml::parse(spec_with(
                   "<input_format>text</input_format>"
                   "<element><delimiter value=\"\\t\"/></element>"))),
               ConfigError);
  // Unknown delimiter escape.
  EXPECT_THROW(schema::parse_input_spec(xml::parse(spec_with(
                   "<input_format>text</input_format>"
                   "<element><value name=\"a\" type=\"String\"/>"
                   "<delimiter value=\"\\q\"/></element>"))),
               ConfigError);
}

// -- Workflows ----------------------------------------------------------------

TEST(WorkflowNegative, MalformedWorkflowsAreConfigErrors) {
  // num_reducers must be a whole number.
  EXPECT_THROW(core::parse_workflow(xml::parse(R"(
      <workflow id="w"><operators>
        <operator id="op" operator="Sort" num_reducers="lots"/>
      </operators></workflow>)")),
               ConfigError);
  // Missing the operator attribute entirely.
  EXPECT_THROW(core::parse_workflow(xml::parse(R"(
      <workflow id="w"><operators><operator id="op"/></operators></workflow>)")),
               ConfigError);
  // Duplicate operator ids.
  EXPECT_THROW(core::parse_workflow(xml::parse(R"(
      <workflow id="w"><operators>
        <operator id="op" operator="Sort"/>
        <operator id="op" operator="Group"/>
      </operators></workflow>)")),
               ConfigError);
  // Unexpected child element inside an operator.
  EXPECT_THROW(core::parse_workflow(xml::parse(R"(
      <workflow id="w"><operators>
        <operator id="op" operator="Sort"><surprise/></operator>
      </operators></workflow>)")),
               ConfigError);
}

/// A one-operator Distribute workflow over a text input `in.txt`.
core::WorkflowEngine distribute_engine(const std::string& num_partitions,
                                       core::EngineOptions options = {}) {
  const auto spec = schema::parse_input_spec(xml::parse(R"(
      <input id="fmt" name="fmt">
        <input_format>text</input_format>
        <element>
          <value name="a" type="String"/><delimiter value="\n"/>
        </element>
      </input>)"));
  auto wf = core::parse_workflow(xml::parse(R"(
      <workflow id="w">
        <arguments>
          <param name="input_path" type="hdfs" format="fmt"/>
          <param name="output_path" type="hdfs" format="fmt"/>
        </arguments>
        <operators>
          <operator id="distr" operator="Distribute">
            <param name="inputPath" type="String" value="$input_path"/>
            <param name="outputPath" type="String" value="$output_path"/>
            <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
            <param name="numPartitions" type="integer" value=")" +
                                                 num_partitions + R"("/>
          </operator>
        </operators>
      </workflow>)"));
  return core::WorkflowEngine(std::move(wf), {{"fmt", spec}},
                              {{"input_path", "in.txt"}, {"output_path", "out"}},
                              std::move(options));
}

TEST(EngineNegative, BadNumPartitionsIsAConfigError) {
  auto engine = distribute_engine("several");
  mp::Runtime rt(2, mp::NetworkModel::zero());
  try {
    engine.run(rt, {{"in.txt", "x\ny\n"}});
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("numPartitions"), std::string::npos);
  }
}

// -- Number parsing -----------------------------------------------------------

TEST(ParseNumberNegative, RejectsGarbageEmptyAndOverflow) {
  EXPECT_EQ(parse_number<int>("42", "n"), 42);
  EXPECT_THROW(parse_number<int>("", "n"), ConfigError);
  EXPECT_THROW(parse_number<int>("4x", "n"), ConfigError);
  EXPECT_THROW(parse_number<int>("x4", "n"), ConfigError);
  EXPECT_THROW(parse_number<int>("999999999999999999999", "n"), ConfigError);
  EXPECT_THROW(parse_number<std::size_t>("-3", "n"), ConfigError);
  try {
    parse_number<int>("nope", "the knob");
    FAIL();
  } catch (const ConfigError& e) {
    // The error names the offending parameter.
    EXPECT_NE(std::string(e.what()).find("the knob"), std::string::npos);
  }
}

TEST(ParseNumberNegative, RejectsNonFiniteFloatingPoint) {
  EXPECT_DOUBLE_EQ(parse_number<double>("0.25", "x"), 0.25);
  EXPECT_DOUBLE_EQ(parse_number<double>("-1000", "x"), -1000.0);
  for (const char* text : {"nan", "NaN", "-nan", "inf", "-inf", "infinity"}) {
    EXPECT_THROW(parse_number<double>(text, "x"), ConfigError) << text;
  }
}

// -- Fault specs --------------------------------------------------------------

TEST(FaultSpecNegative, RejectedWithTypedErrors) {
  EXPECT_THROW(mp::FaultPlan::parse("drop=2"), ConfigError);
  EXPECT_THROW(mp::FaultPlan::parse("dup=nope"), ConfigError);
  EXPECT_THROW(mp::FaultPlan::parse("delay=0.5:fast"), ConfigError);
  EXPECT_THROW(mp::FaultPlan::parse("crash=@4"), ConfigError);
  EXPECT_THROW(mp::FaultPlan::parse("unknown_knob=1"), ConfigError);
  EXPECT_THROW(mp::FaultPlan::parse_arg("/does/not/exist.conf"), ConfigError);
  // Non-finite values: NaN slips past a `p < 0 || p > max` range check, and
  // an infinite delay makes the simulated time infinite.
  EXPECT_THROW(mp::FaultPlan::parse("delay=0.5:inf"), ConfigError);
  EXPECT_THROW(mp::FaultPlan::parse("drop=nan"), ConfigError);
  EXPECT_THROW(mp::FaultPlan::parse("corrupt=nan"), ConfigError);
  EXPECT_THROW(mp::FaultPlan::parse("slow=2@nan"), ConfigError);
}

// -- Recovery policy ----------------------------------------------------------

TEST(RecoveryNegative, BadRetryPolicyIsAConfigError) {
  mp::Runtime rt(2, mp::NetworkModel::zero());
  auto with = [](auto mutate) {
    mp::RecoveryOptions o;
    o.mode = mp::RecoveryMode::kLocal;
    mutate(o.retry);
    return o;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(rt.set_recovery(with([](mp::RetryPolicy& r) { r.backoff_base = -1000; })),
               ConfigError);
  EXPECT_THROW(rt.set_recovery(with([&](mp::RetryPolicy& r) { r.backoff_base = nan; })),
               ConfigError);
  EXPECT_THROW(rt.set_recovery(with([&](mp::RetryPolicy& r) { r.backoff_max = inf; })),
               ConfigError);
  EXPECT_THROW(rt.set_recovery(with([](mp::RetryPolicy& r) { r.backoff_max = -1; })),
               ConfigError);
  EXPECT_THROW(rt.set_recovery(with([](mp::RetryPolicy& r) { r.max_attempts = -1; })),
               ConfigError);
  EXPECT_NO_THROW(rt.set_recovery(with([](mp::RetryPolicy& r) { r.max_attempts = 0; })));

  // Through the engine, as `papar --retry-backoff -1000` reaches it.
  core::EngineOptions options;
  options.recovery.mode = mp::RecoveryMode::kLocal;
  options.recovery.retry.backoff_base = -1000;
  auto engine = distribute_engine("2", options);
  EXPECT_THROW(engine.run(rt, {{"in.txt", "x\ny\n"}}), ConfigError);
}

}  // namespace
}  // namespace papar
