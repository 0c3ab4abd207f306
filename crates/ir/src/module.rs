//! Modules: named collections of functions.

use crate::function::Function;

/// A compilation unit holding one or more functions.
#[derive(Debug, Clone, Default)]
pub struct Module {
    name: String,
    functions: Vec<Function>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            functions: Vec::new(),
        }
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a function and returns its index.
    pub fn add_function(&mut self, f: Function) -> usize {
        self.functions.push(f);
        self.functions.len() - 1
    }

    /// All functions.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Mutable access to all functions.
    pub fn functions_mut(&mut self) -> &mut [Function] {
        &mut self.functions
    }

    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name() == name)
    }
}

impl FromIterator<Function> for Module {
    fn from_iter<T: IntoIterator<Item = Function>>(iter: T) -> Self {
        Module {
            name: String::new(),
            functions: iter.into_iter().collect(),
        }
    }
}

impl Extend<Function> for Module {
    fn extend<T: IntoIterator<Item = Function>>(&mut self, iter: T) {
        self.functions.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Param;
    use crate::types::Type;

    #[test]
    fn lookup_by_name() {
        let mut m = Module::new("m");
        m.add_function(Function::new(
            "a",
            vec![Param::noalias_ptr("p")],
            Type::Void,
        ));
        m.add_function(Function::new("b", vec![], Type::Void));
        assert!(m.function("a").is_some());
        assert!(m.function("b").is_some());
        assert!(m.function("c").is_none());
        assert_eq!(m.functions().len(), 2);
    }

    #[test]
    fn multi_function_module_prints_and_reparses() {
        use crate::builder::FunctionBuilder;
        use crate::types::ScalarType;
        let mut m = Module::new("m");
        for name in ["first", "second"] {
            let mut fb = FunctionBuilder::new(name, vec![Param::noalias_ptr("p")], Type::Void);
            let p = fb.func().param(0);
            let v = fb.load(ScalarType::F64, p);
            let s = fb.add(v, v);
            fb.store(p, s);
            fb.ret(None);
            m.add_function(fb.finish());
        }
        let text = m.to_string();
        let m2 = crate::parser::parse_module(&text).unwrap();
        assert_eq!(m2.functions().len(), 2);
        assert!(m2.function("first").is_some());
        assert!(m2.function("second").is_some());
    }

    #[test]
    fn from_iterator_and_extend() {
        let f = Function::new("x", vec![], Type::Void);
        let mut m: Module = vec![f.clone()].into_iter().collect();
        m.extend(vec![Function::new("y", vec![], Type::Void)]);
        assert_eq!(m.functions().len(), 2);
    }
}
